let scaled factor =
  [
    Adpcm.make ~scale:factor;
    Bcnt.make ~scale:factor;
    Blit.make ~scale:factor;
    Compress.make ~scale:factor;
    Crc.make ~scale:factor;
    Des.make ~scale:factor;
    Engine.make ~scale:factor;
    Fir.make ~scale:factor;
    G3fax.make ~scale:factor;
    Pocsag.make ~scale:factor;
    Qurt.make ~scale:factor;
    Ucbqsort.make ~scale:factor;
  ]

(* Built on first use rather than at start-up, where assembling twelve
   programs and generating their inputs would cost every dse process
   about 1.4 ms. Domains that race on the empty cell each build an equal
   list and the first to publish wins; a shared [lazy] would instead
   raise [CamlinternalLazy.Undefined] in the loser. *)
let built : Workload.t list option Atomic.t = Atomic.make None

let all () =
  match Atomic.get built with
  | Some benchmarks -> benchmarks
  | None ->
    ignore (Atomic.compare_and_set built None (Some (scaled 1)));
    Option.get (Atomic.get built)

let find name =
  match List.find_opt (fun b -> b.Workload.name = name) (all ()) with
  | Some b -> b
  | None -> raise Not_found

let names () = List.map (fun b -> b.Workload.name) (all ())
