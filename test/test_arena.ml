(* Tests for the off-heap arena kernel, the one production exact
   kernel: the Arena primitives (i32 and growable word arenas), the
   stream's interner statistics against the boxed prelude, and
   bit-identity of the stream's histograms with the paper-faithful
   oracle ({!Oracle}: the materialized MRCT under the fused DFS and the
   BCAT walk) and the reference LRU simulator.

   The "streaming:*" suites test the same kernel through the
   {!Analytical} facade: it is the single-pass streaming fusion of
   MRCT -> histogram, and those suites carry the streaming algorithm's
   equivalence and edge cases. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let prop ?(count = 120) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_addresses = QCheck2.Gen.(array_size (int_range 1 250) (int_bound 127))

let gen_line_words = QCheck2.Gen.map (fun k -> 1 lsl k) (QCheck2.Gen.int_bound 3)

(* -- Arena primitives -- *)

let test_i32_roundtrip () =
  let a = Arena.i32_create 5 in
  check_int "zero-filled" 0 (Arena.i32_get a 3);
  Arena.i32_set a 3 123456;
  check_int "set/get" 123456 (Arena.i32_get a 3);
  Arena.i32_set a 0 (-7);
  check_int "negative survives the int32 round-trip" (-7) (Arena.i32_get a 0);
  check_int "length" 5 (Arena.i32_length a);
  (* a requested size of 0 still allocates a sentinel slot *)
  check_int "empty arena still addressable" 1 (Arena.i32_length (Arena.i32_create 0))

let test_word_grow () =
  let a = Arena.word_create 4 in
  for i = 0 to 3 do
    Arena.word_set a i (10 * i)
  done;
  let b = Arena.word_grow a ~len:4 ~capacity:10 in
  check_int "grown length" 10 (Arena.word_length b);
  for i = 0 to 3 do
    check_int "prefix preserved" (10 * i) (Arena.word_get b i)
  done;
  for i = 4 to 9 do
    check_int "tail zeroed" 0 (Arena.word_get b i)
  done

(* -- the stream's statistics vs the boxed prelude -- *)

let streamed ?max_level ~line_words addrs =
  let s = Arena_kernel.stream_create ~line_words ?max_level () in
  Array.iter (Arena_kernel.stream_add s) addrs;
  (Arena_kernel.stream_stats s, Arena_kernel.stream_histograms s)

let test_strip_paper_example () =
  let trace = Paper_example.trace () in
  let stats, _ = streamed ~line_words:1 (Trace.addresses trace) in
  let stripped = Strip.strip trace in
  check_int "num_refs" (Strip.num_refs stripped) stats.Stats.n;
  check_int "num_unique" (Strip.num_unique stripped) stats.Stats.n_unique;
  check_int "address_bits" (Strip.address_bits stripped) stats.Stats.address_bits;
  check_bool "stats = compute_stripped" true (stats = Stats.compute_stripped stripped);
  check_bool "prepare's stats" true
    (Analytical.stats (Analytical.prepare trace) = Stats.compute_stripped stripped)

let prop_stream_stats_equal_boxed =
  prop "stream stats = boxed strip stats (stream and prepare; random line_words)"
    QCheck2.Gen.(pair gen_addresses gen_line_words)
    (fun (addrs, line_words) ->
      let trace = Trace.of_addresses addrs in
      let stripped = Oracle.stripped ~line_words trace in
      fst (streamed ~line_words addrs) = Stats.compute_stripped stripped
      && Analytical.stats (Analytical.prepare ~line_words trace)
         = Stats.compute_stripped stripped)

(* an empty stream has the one-bit address floor, so a level cap of 3
   clamps to levels 0 and 1 *)
let test_strip_empty_trace () =
  let stats, hists = streamed ~max_level:3 ~line_words:1 [||] in
  check_int "no refs" 0 stats.Stats.n;
  check_int "no uniques" 0 stats.Stats.n_unique;
  check_int "address_bits floor" 1 stats.Stats.address_bits;
  check_int "levels" 2 (Array.length hists);
  Array.iter (fun h -> Alcotest.(check (array int)) "empty level" [| 0 |] h) hists;
  check_bool "prepare agrees" true
    (Analytical.histograms (Analytical.prepare ~max_level:3 (Trace.create ())) = hists)

let test_strip_rejects_bad_line_words () =
  let trace = Trace.of_addresses [| 1; 2; 3 |] in
  List.iter
    (fun line_words ->
      Alcotest.check_raises "bad line_words"
        (Invalid_argument "Arena_kernel.stream_create: line_words must be a positive power of two")
        (fun () -> ignore (Arena_kernel.stream_create ~line_words ()));
      Alcotest.check_raises "bad line_words"
        (Invalid_argument "Analytical.prepare: line_words must be a positive power of two")
        (fun () -> ignore (Analytical.prepare ~line_words trace)))
    [ 0; -4; 3; 12 ]

(* -- histogram identity: arena = materialized oracle -- *)

let prop_arena_equals_materialized =
  prop "arena histograms = materialized DFS (random line_words)"
    QCheck2.Gen.(pair gen_addresses gen_line_words)
    (fun (addrs, line_words) ->
      let stripped = Oracle.stripped ~line_words (Trace.of_addresses addrs) in
      let max_level = Strip.address_bits stripped in
      snd (streamed ~line_words addrs) = Oracle.histograms stripped ~max_level)

(* [gen_addresses] draws from [0, 127], where no XOR of two distinct
   addresses has a zero low byte, so the conflict-level step never leaves
   its byte table. Strided addresses do: a random base plus [k lsl s]
   with [s] in 8..24 gives pairs that agree on their low 8 (or more)
   bits, at widths up to about 40 bits. [max_level] ranges below and
   above 8, so the clamp sentinel lands in the low byte and above it. *)
let gen_strided_addresses =
  QCheck2.Gen.(
    let* base = int_bound ((1 lsl 40) - 1) in
    let* strides = list_size (int_range 1 3) (int_range 8 24) in
    array_size (int_range 1 200)
      (let* s = oneofl strides in
       let* k = int_bound 15 in
       let* jitter = oneof [ return 0; int_bound 255 ] in
       return (base + (k lsl s) + jitter)))

let prop_arena_wide_addresses =
  prop ~count:150 "wide strided addresses: arena = materialized DFS = simulated LRU"
    QCheck2.Gen.(
      triple gen_strided_addresses (oneof [ int_range 0 7; int_range 8 44 ]) (int_range 1 4))
    (fun (addrs, max_level, associativity) ->
      let trace = Trace.of_addresses addrs in
      let prepared = Analytical.prepare ~max_level trace in
      let hists = Analytical.histograms prepared and max_level = Analytical.max_level prepared in
      (* the simulator allocates every set, so keep its depth small; it
         still reaches the levels where the byte table falls back *)
      let level = min max_level 12 in
      let sim =
        (Cache.simulate (Config.make ~depth:(1 lsl level) ~associativity ()) trace).Cache.misses
      in
      hists = Oracle.histograms (Oracle.stripped trace) ~max_level
      && Analytical.misses prepared ~depth:(1 lsl level) ~associativity = sim)

(* every PowerStone workload, both trace kinds: the arena kernel — the
   one streaming kernel — must agree with the materialized MRCT oracle
   on all 24 real traces *)
let powerstone_identity_case (b : Workload.t) =
  Alcotest.test_case
    (b.Workload.name ^ " arena = streaming kernel, checked against the materialized oracle")
    `Slow (fun () ->
      let itrace, dtrace = Workload.traces b in
      List.iter
        (fun trace ->
          let stripped = Strip.strip trace in
          let max_level = Strip.address_bits stripped in
          check_bool "identical histograms" true
            (Analytical.histograms (Analytical.prepare trace)
            = Oracle.histograms stripped ~max_level))
        [ itrace; dtrace ])

(* -- the slot state machine: compaction --

   Each shape below drives one path of the kernel's slot state: full
   compactions, partial ones behind a long-lived prefix, the dead-scan
   trigger and alive counts straddling a 62-slot word. Every one is
   checked against the materialized oracle (DFS over MRCT), on the
   stream (whose slot state also grows as it goes) and through
   [Analytical.prepare], and its miss count at a small level against the
   LRU simulator. *)

let agrees_with_oracle addrs ~max_level ~associativity =
  let trace = Trace.of_addresses addrs in
  let stripped = Strip.strip trace in
  let bits = Strip.address_bits stripped in
  (* the stream clamps its level cap to the address bits *)
  let max_level = if max_level < 0 then bits else min max_level bits in
  let _, hists = streamed ~max_level ~line_words:1 addrs in
  let level = min max_level 10 in
  let sim =
    (Cache.simulate (Config.make ~depth:(1 lsl level) ~associativity ()) trace).Cache.misses
  in
  hists = Oracle.histograms stripped ~max_level
  && Analytical.histograms (Analytical.prepare ~max_level trace) = hists
  && Optimizer.misses_of_histogram hists.(level) ~associativity = sim

(* [-1] stands for the trace's own address width *)
let gen_max_level = QCheck2.Gen.oneofl [ 0; 1; 8; -1; 70 ]

(* an odd multiplier permutes [0, 2^24), so distinct ids keep distinct
   addresses while their low bits look random *)
let scatter x = (x * 0x9E3779B1) land ((1 lsl 24) - 1)

(* a few lines, thousands of references: the slot array fills and
   compacts over and over *)
let prop_slots_tiny_working_set =
  prop ~count:40 "slots: tiny N', long trace (repeated full compactions)"
    QCheck2.Gen.(
      let* lines = array_size (int_range 1 8) (int_bound ((1 lsl 24) - 1)) in
      let* picks = array_size (int_range 1500 5000) (int_bound 1000) in
      let* max_level = gen_max_level in
      let* associativity = int_range 1 4 in
      let addrs = Array.map (fun k -> lines.(k mod Array.length lines)) picks in
      return (addrs, max_level, associativity))
    (fun (addrs, max_level, associativity) -> agrees_with_oracle addrs ~max_level ~associativity)

(* [k] one-shot lines, then a hot loop over [hot] lines that re-touches
   one of [m] rotating lines every [period] references: the one-shot
   prefix never moves (partial compaction), and the rotating touches
   scan the hot loop's dead words (the dead-scan trigger) *)
let one_shot_then_hot_loop ~k ~hot ~m ~period ~tail =
  Array.init (k + tail) (fun i ->
      if i < k then scatter i
      else
        let i = i - k in
        if i mod period = period - 1 then scatter (k + hot + (i / period mod m))
        else scatter (k + (i mod hot)))

let prop_slots_one_shot_prefix =
  prop ~count:40 "slots: one-shot prefix then hot loop (partial and dead-scan compactions)"
    QCheck2.Gen.(
      let* k = int_range 100 1500 in
      let* hot = int_range 1 3 in
      let* m = int_range 1 30 in
      let* period = int_range 2 200 in
      let* tail = int_range 1000 4000 in
      let* max_level = gen_max_level in
      let* associativity = int_range 1 4 in
      return (one_shot_then_hot_loop ~k ~hot ~m ~period ~tail, max_level, associativity))
    (fun (addrs, max_level, associativity) -> agrees_with_oracle addrs ~max_level ~associativity)

(* alive counts just below, at and above one and two 62-slot words, in
   a fresh random order every pass *)
let prop_slots_word_boundary =
  prop ~count:30 "slots: N' straddling the 62-slot word boundary"
    QCheck2.Gen.(
      let* n = oneofl [ 61; 62; 63; 123; 124; 125 ] in
      let* passes = list_size (int_range 2 4) (shuffle_l (List.init n scatter)) in
      let* max_level = gen_max_level in
      let* associativity = int_range 1 4 in
      return (Array.of_list (List.concat passes), max_level, associativity))
    (fun (addrs, max_level, associativity) -> agrees_with_oracle addrs ~max_level ~associativity)

(* The dead-slot adversary, scaled down: 2000 one-shot lines, then 8000
   references of a 2-line hot loop that re-touches one of 14 rotating
   lines every 142 references. *)
let test_slots_dead_slot_adversary () =
  let addrs = one_shot_then_hot_loop ~k:2000 ~hot:2 ~m:14 ~period:(2000 / 14) ~tail:8000 in
  List.iter
    (fun max_level ->
      check_bool
        (Printf.sprintf "arena = oracle = simulator (max_level %d)" max_level)
        true
        (agrees_with_oracle addrs ~max_level ~associativity:2))
    [ 0; 8; -1; 70 ]

(* -- the conflict-count step: C against the OCaml oracle step -- *)

let mask62 = (1 lsl 62) - 1

let gen_word62 = QCheck2.Gen.map (fun x -> x land mask62) QCheck2.Gen.int

(* an address below 2^62, half the time with bit 61 set *)
let gen_step_address =
  QCheck2.Gen.map2 (fun x top -> if top then x lor (1 lsl 61) else x) gen_word62 QCheck2.Gen.bool

type step_case = {
  planes : int;
  bits : int array;  (* per word: alive mask, then [planes] planes *)
  au : int;
  p : int;
  next_slot : int;
  depth : int array;  (* [planes + 3] cells, so a count past [planes] shows *)
}

let print_step_case c =
  let ints a = String.concat ";" (Array.to_list (Array.map (Printf.sprintf "0x%x") a)) in
  Printf.sprintf "planes %d au 0x%x p %d next_slot %d depth [%s] bits [%s]" c.planes c.au c.p
    c.next_slot (ints c.depth) (ints c.bits)

(* Random slot words: all-dead, all-alive and random alive masks; each
   word's slots hold [au] or one random address, bit 61 often set, so
   plane [l] holds bit [l] of it on every slot but for sparse or random
   noise in half the words, and counts run from level 0 to [planes].
   [planes] runs from 0 through the eight levels the step
   counts without a branch to the widest address; a long run of words
   fills its queue of words still counting past those eight levels.
   [p] sits at bit 0, bit 61 or anywhere in its word, and [next_slot] is
   often on a word boundary. *)
let gen_step_case =
  QCheck2.Gen.(
    let* planes = oneofl [ 0; 1; 2; 5; 6; 7; 8; 9; 61 ] in
    let* words = frequency [ (4, int_range 1 5); (1, int_range 60 140) ] in
    let* au = gen_step_address in
    let gen_word =
      let* alive = frequency [ (2, return 0); (1, return mask62); (4, gen_word62) ] in
      let* x = oneof [ return au; gen_step_address ] in
      let sparse = map3 (fun a b c -> a land b land c) gen_word62 gen_word62 gen_word62 in
      let* noise =
        oneofl [ return 0; frequency [ (4, return 0); (3, sparse); (1, gen_word62) ] ]
      in
      let* planes_l =
        flatten_l
          (List.init planes (fun l ->
               let agree = if (x lsr l) land 1 = 1 then mask62 else 0 in
               map (fun noise -> agree lxor noise) noise))
      in
      return (alive :: planes_l)
    in
    let* per_word = list_repeat words gen_word in
    let* first = oneof [ return 0; int_bound (words - 1) ] in
    let* p_bit = oneof [ return 0; return 61; int_bound 61 ] in
    let* last = oneof [ return (words - 1); int_range first (words - 1) ] in
    let* next_bit = oneof [ return 1; return 64; int_range 1 62 ] in
    let p = (first * 64) + p_bit in
    let* depth = array_repeat (planes + 3) (int_bound 1000) in
    return
      {
        planes;
        bits = Array.of_list (List.concat per_word);
        au;
        p;
        next_slot = max (p + 1) ((last * 64) + next_bit);
        depth;
      })

let word_arena a =
  let w = Arena.word_create (Array.length a) in
  Array.iteri (Arena.word_set w) a;
  w

let prop_step_equals_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"C count_conflicts = OCaml oracle step"
       ~print:print_step_case gen_step_case (fun c ->
         let bits = word_arena c.bits in
         let depth_c = word_arena c.depth and depth_o = word_arena c.depth in
         let r_c = Arena_kernel.count_conflicts bits c.planes c.au c.p c.next_slot depth_c in
         let r_o = Oracle.count_conflicts bits c.planes c.au c.p c.next_slot depth_o in
         r_c = r_o && depth_c = depth_o))

(* -- compaction: C against the OCaml oracle that rebuilds the slots -- *)

type compact_case = {
  c_planes : int;
  addresses : int array;  (* id -> address *)
  masks : int array;  (* per word: the alive mask *)
  ids : int array;  (* slot -> id, [64 * words] entries; dead slots' ids are stale *)
  noise : int array;  (* per word and plane: stale bits under the dead slots *)
  from : int;
}

let print_compact_case c =
  let ints a = String.concat ";" (Array.to_list (Array.map (Printf.sprintf "0x%x") a)) in
  Printf.sprintf "planes %d from %d masks [%s] addresses [%s] ids [%s]" c.c_planes c.from
    (ints c.masks) (ints c.addresses) (ints c.ids)

(* A slot state as a stream leaves it: words of all-dead, full, sparse
   and random alive masks, the last one often cut at [next_slot]
   mid-word; each alive slot holds a distinct id, whose address's low
   bits are its planes; dead slots keep stale ids and plane bits.
   [from] is the first word holding a dead slot or any word below it,
   so the first destination is mid-word or at a word start, and word
   runs whose alive counts do not fit the slots left make the moved
   slots straddle word boundaries. *)
let gen_compact_case =
  QCheck2.Gen.(
    let* c_planes = oneofl [ 0; 1; 8; 61 ] in
    let* words = frequency [ (3, int_range 1 4); (1, int_range 5 40) ] in
    let sparse = map3 (fun a b c -> a land b land c) gen_word62 gen_word62 gen_word62 in
    let* masks =
      array_repeat words
        (frequency
           [ (2, return 0); (2, return mask62); (2, map (fun x -> mask62 land lnot x) sparse);
             (2, sparse); (3, gen_word62) ])
    in
    let* cut = oneof [ return 62; int_range 1 61 ] in
    let masks =
      Array.mapi (fun w m -> if w = words - 1 then m land ((1 lsl cut) - 1) else m) masks
    in
    let n = Array.fold_left (fun n m -> n + Oracle.popcount m) 0 masks in
    let* order = shuffle_a (Array.init n Fun.id) in
    let* addresses = array_repeat n gen_step_address in
    let* stale = array_repeat (64 * words) (int_bound (max 0 (n - 1))) in
    let next = ref 0 in
    let ids =
      Array.init (64 * words) (fun s ->
          if (masks.(s lsr 6) lsr (s land 63)) land 1 = 1 then begin
            incr next;
            order.(!next - 1)
          end
          else stale.(s))
    in
    let* noise = array_repeat (words * c_planes) gen_word62 in
    (* the kernel starts at the first word with a dead slot or the word
       of [next_slot], whichever is lower: the first word not full *)
    let first_dead =
      let rec scan w = if w = words || masks.(w) <> mask62 then w else scan (w + 1) in
      scan 0
    in
    let* from = oneof [ return first_dead; int_bound first_dead ] in
    return { c_planes; addresses; masks; ids; noise; from })

(* The slot arenas of case [c]: planes from the alive slots' addresses,
   stale noise under the dead ones *)
let compact_arenas c =
  let words = Array.length c.masks and stride = c.c_planes + 1 in
  let bits = Arena.word_create (words * stride) in
  let id_of = Arena.i32_create (64 * words) in
  let slot_of = Arena.i32_create (Array.length c.addresses) in
  Array.iteri
    (fun w alive ->
      Arena.word_set bits (w * stride) alive;
      for l = 0 to c.c_planes - 1 do
        let plane = ref (c.noise.((w * c.c_planes) + l) land lnot alive) in
        for b = 0 to 61 do
          let s = (w * 64) + b in
          if (alive lsr b) land 1 = 1 && (c.addresses.(c.ids.(s)) lsr l) land 1 = 1 then
            plane := !plane lor (1 lsl b)
        done;
        Arena.word_set bits ((w * stride) + 1 + l) !plane
      done)
    c.masks;
  Array.iteri
    (fun s u ->
      Arena.i32_set id_of s u;
      if (c.masks.(s lsr 6) lsr (s land 63)) land 1 = 1 then Arena.i32_set slot_of u s)
    c.ids;
  (bits, id_of, slot_of)

let prop_compact_equals_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"C compact_words = OCaml rebuild from addresses"
       ~print:print_compact_case gen_compact_case (fun c ->
         let stop = Array.length c.masks in
         let bits_c, id_of_c, slot_of_c = compact_arenas c in
         let bits_o, id_of_o, slot_of_o = compact_arenas c in
         let next_c =
           Arena_kernel.compact_words bits_c c.c_planes id_of_c slot_of_c c.from stop
         in
         let next_o =
           Oracle.compact_words ~address:(Array.get c.addresses) bits_o c.c_planes id_of_o
             slot_of_o c.from stop
         in
         let ids_agree = ref true in
         for s = 0 to next_o - 1 do
           if s land 63 < 62 && Arena.i32_get id_of_c s <> Arena.i32_get id_of_o s then
             ids_agree := false
         done;
         next_c = next_o && !ids_agree && slot_of_c = slot_of_o && bits_c = bits_o))

(* On a loop nest over 48 lines the kernel compacts about once per 944
   references, so an allocation per compaction (or per reference) would
   make minor words grow with N. This runs the whole of
   [Analytical.prepare] over a trace in memory: its input loop and
   cancellation polls allocate nothing per reference either. *)
let test_kernel_minor_words_flat () =
  let minor_words refs =
    let trace = Synthetic.loop ~base:0 ~body:48 ~iterations:(refs / 48) in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Analytical.prepare trace));
    Gc.minor_words () -. before
  in
  let small = minor_words 100_000 and large = minor_words 1_000_000 in
  check_bool
    (Printf.sprintf "minor words %.0f at N = 100K and %.0f at N = 1M differ by < 1000" small
       large)
    true
    (Float.abs (large -. small) < 1000.)

(* -- errors and degenerate input -- *)

let test_arena_rejects_negative_level () =
  Alcotest.check_raises "negative max_level"
    (Invalid_argument "Arena_kernel: negative max_level") (fun () ->
      ignore (Arena_kernel.stream_create ~max_level:(-1) ()));
  let s = Arena_kernel.stream_create () in
  Alcotest.check_raises "negative max_level on reset"
    (Invalid_argument "Arena_kernel: negative max_level") (fun () ->
      Arena_kernel.stream_reset ~max_level:(-1) s)

let test_arena_repeated_single_address () =
  let _, hists = streamed ~max_level:2 ~line_words:1 (Array.make 1000 5) in
  check_int "levels" 3 (Array.length hists);
  Array.iter (fun h -> Alcotest.(check (array int)) "no conflicts" [| 0 |] h) hists;
  check_int "no non-cold misses" 0 (Optimizer.misses_of_histogram hists.(0) ~associativity:1)

let test_arena_cancellation () =
  let trace = Synthetic.loop ~base:0 ~body:48 ~iterations:4096 in
  let cancel = Cancel.cancellable () in
  Cancel.cancel cancel;
  match Analytical.prepare ~cancel trace with
  | exception Dse_error.Error (Dse_error.Deadline_exceeded _) -> ()
  | _ -> Alcotest.fail "already-cancelled token did not stop the kernel"

(* -- the one-pass stream against the oracle --

   [Arena_kernel.stream_add] interns and steps each address as it
   arrives, growing its slot state and tallies; it must give exactly the
   statistics of the boxed strip and the materialized oracle's
   histograms at the level range [min max_level address_bits]. *)

(* the level cap, relative to the trace's address bits: unset, 0,
   below them and above them *)
type level_cap = Unset | Zero | Below | Above

let cap_level cap ~bits =
  match cap with
  | Unset -> None
  | Zero -> Some 0
  | Below -> Some (bits / 2)
  | Above -> Some (bits + 5)

let stream_equals_oracle ~line_words ~cap addrs =
  let stripped = Oracle.stripped ~line_words (Trace.of_addresses addrs) in
  let bits = Strip.address_bits stripped in
  let max_level = cap_level cap ~bits in
  let levels = match max_level with None -> bits | Some m -> min m bits in
  streamed ?max_level ~line_words addrs
  = (Stats.compute_stripped stripped, Oracle.histograms stripped ~max_level:levels)

(* N' climbing from 1 past several capacity doublings (16 words hold 992
   slots): every third reference re-touches an older line *)
let gen_growing_uniques =
  QCheck2.Gen.(
    let* n = int_range 3000 9000 in
    let* back = int_range 2 50 in
    return (Array.init n (fun i -> if i mod 3 = 2 then scatter (i / back) else scatter i)))

(* thousands of references over narrow addresses, then wider ones that
   arrive late: each adds planes and levels to a stream already full of
   live slots *)
let gen_late_wide_address =
  QCheck2.Gen.(
    let* prefix = int_range 1000 5000 in
    let* lines = int_range 1 200 in
    let* widths = list_size (int_range 1 3) (int_range 9 61) in
    let* tail = int_range 1 2000 in
    let wide = Array.of_list (List.map (fun w -> (1 lsl (w - 1)) + w) widths) in
    let n_wide = Array.length wide in
    let arrive = Array.init n_wide (fun i -> prefix + (i * tail / n_wide)) in
    return
      (Array.init (prefix + tail) (fun i ->
           let latest = ref (-1) in
           Array.iteri (fun k at -> if at <= i then latest := k) arrive;
           if !latest >= 0 && i mod 7 = 0 then wide.(i / 7 mod (!latest + 1))
           else i * 31 mod lines)))

let gen_stream_addresses =
  QCheck2.Gen.(
    frequency
      [
        (3, gen_addresses);
        (2, gen_strided_addresses);
        (2, gen_growing_uniques);
        (2, gen_late_wide_address);
        ( 1,
          map2
            (fun lines picks -> Array.map (fun k -> lines.(k mod Array.length lines)) picks)
            (array_size (int_range 1 8) (int_bound ((1 lsl 24) - 1)))
            (array_size (int_range 1500 5000) (int_bound 1000)) );
        ( 1,
          let* k = int_range 100 1500 in
          let* m = int_range 1 30 in
          let* period = int_range 2 200 in
          return (one_shot_then_hot_loop ~k ~hot:2 ~m ~period ~tail:3000) );
        (1, map (fun n -> Array.init n scatter) (int_range 0 3000));
      ])

let prop_stream_equals_oracle =
  prop ~count:150 "stream = boxed strip + materialized DFS (line_words 1/2/4, level caps, growth)"
    QCheck2.Gen.(
      triple gen_stream_addresses (oneofl [ 1; 2; 4 ]) (oneofl [ Unset; Zero; Below; Above ]))
    (fun (addrs, line_words, cap) -> stream_equals_oracle ~line_words ~cap addrs)

(* A reset stream counts a trace as a fresh one does, whatever trace
   and level cap it counted before. *)
let prop_stream_reset_equals_fresh =
  prop ~count:100 "a reset stream = a fresh stream (any earlier trace and level cap)"
    QCheck2.Gen.(
      pair
        (pair gen_stream_addresses (oneofl [ Unset; Zero; Below; Above ]))
        (pair gen_stream_addresses (oneofl [ Unset; Zero; Below; Above ])))
    (fun ((before, before_cap), (addrs, cap)) ->
      let level cap addrs =
        cap_level cap ~bits:(Trace.address_bits (Trace.of_addresses addrs))
      in
      let s = Arena_kernel.stream_create ?max_level:(level before_cap before) () in
      Array.iter (Arena_kernel.stream_add s) before;
      let max_level = level cap addrs in
      Arena_kernel.stream_reset ?max_level s;
      Array.iter (Arena_kernel.stream_add s) addrs;
      (Arena_kernel.stream_stats s, Arena_kernel.stream_histograms s)
      = streamed ?max_level ~line_words:1 addrs)

(* A stream capped at level 0 has no bit-plane; reset without the cap,
   it must start with the one plane a fresh stream has, even when no
   address ever widens it. *)
(* The off-heap bytes of every bigarray reachable from [o]: the only
   custom blocks a stream holds are its arenas, and none is shared. *)
let rec reachable_arena_bytes o =
  if Obj.is_int o then 0
  else if Obj.tag o = Obj.custom_tag then
    Bigarray.Array1.size_in_bytes
      (Obj.obj o : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t)
  else if Obj.tag o < Obj.no_scan_tag then begin
    let bytes = ref 0 in
    for i = 0 to Obj.size o - 1 do
      bytes := !bytes + reachable_arena_bytes (Obj.field o i)
    done;
    !bytes
  end
  else 0

(* [stream_bytes] bounds what a worker retains, so it must count every
   arena the stream holds, tallies included, before and after a reset *)
let prop_stream_bytes_counts_every_arena =
  prop ~count:60 "stream_bytes = the sizes of every arena the stream holds"
    QCheck2.Gen.(pair gen_stream_addresses gen_stream_addresses)
    (fun (first, second) ->
      let s = Arena_kernel.stream_create () in
      let counted () = Arena_kernel.stream_bytes s = reachable_arena_bytes (Obj.repr s) in
      let fresh = counted () in
      Array.iter (Arena_kernel.stream_add s) first;
      let filled = counted () in
      Arena_kernel.stream_reset s;
      Array.iter (Arena_kernel.stream_add s) second;
      fresh && filled && counted ())

let test_stream_reset_after_level_zero () =
  let s = Arena_kernel.stream_create ~max_level:0 () in
  Arena_kernel.stream_add s 0;
  List.iter
    (fun addrs ->
      Arena_kernel.stream_reset s;
      Array.iter (Arena_kernel.stream_add s) addrs;
      check_bool "reset = fresh" true
        ((Arena_kernel.stream_stats s, Arena_kernel.stream_histograms s)
        = streamed ~line_words:1 addrs))
    [ [| 1 |]; [| 1; 0; 1 |]; [| 0; 2; 0; 6 |] ]

let test_stream_edges () =
  List.iter
    (fun cap ->
      List.iter
        (fun (what, addrs) ->
          check_bool what true (stream_equals_oracle ~line_words:1 ~cap addrs))
        [
          ("empty trace", [||]);
          ("all cold", Array.init 5000 scatter);
          ("one address", Array.make 100 7);
          ("the widest address", [| 0; max_int; 0; max_int; 1 |]);
        ])
    [ Unset; Zero; Below; Above ];
  Alcotest.check_raises "negative max_level"
    (Invalid_argument "Arena_kernel: negative max_level") (fun () ->
      ignore (Arena_kernel.stream_create ~max_level:(-1) ()));
  Alcotest.check_raises "bad line_words"
    (Invalid_argument "Arena_kernel.stream_create: line_words must be a positive power of two")
    (fun () -> ignore (Arena_kernel.stream_create ~line_words:3 ()))

(* The first warm reference after 5000 cold lines conflicts with 4999
   lines at level 0, about half as many at level 1, and so on: a count
   past its level's one-cell arena at a dozen levels at once, which the
   C step leaves to the OCaml fallback to grow and record. *)
let test_stream_growth_fallback () =
  let addrs = Array.append (Array.init 5000 scatter) [| scatter 0 |] in
  List.iter
    (fun cap ->
      check_bool "stream = oracle" true (stream_equals_oracle ~line_words:1 ~cap addrs))
    [ Unset; Zero; Below; Above ];
  let _, hists = streamed ~line_words:1 addrs in
  check_bool "level 0 holds the count 4999" true (hists.(0).(4999) = 1);
  check_bool "a dozen levels record a count past one" true
    (List.length (List.filter (fun h -> Array.length h > 2) (Array.to_list hists)) >= 12)

(* The streaming twin of "minor words flat in N": the stream compacts
   about once per 944 references of a loop over 48 lines, and interning
   and stepping a reference allocate nothing. *)
let test_stream_minor_words_flat () =
  let minor_words refs =
    let before = Gc.minor_words () in
    let s = Arena_kernel.stream_create () in
    for i = 0 to refs - 1 do
      Arena_kernel.stream_add s (i mod 48)
    done;
    ignore (Sys.opaque_identity (Arena_kernel.stream_histograms s));
    Gc.minor_words () -. before
  in
  let small = minor_words 100_000 and large = minor_words 1_000_000 in
  check_bool
    (Printf.sprintf "minor words %.0f at N = 100K and %.0f at N = 1M differ by < 1000" small
       large)
    true
    (Float.abs (large -. small) < 1000.)

(* The file path: [Analytical.stream_file] against the materialising
   loader + [Analytical.prepare] on every truncation and every byte xor
   of a small binary trace, under each error policy. Either both give
   the same statistics, histograms and skipped-record summary, or both
   give the same typed error. *)
let materialised ~on_error ~format path =
  let load =
    match format with
    | `Binary -> Trace_io.load_binary
    | `Text -> Trace_io.load
    | `Dinero -> Trace_io.load_dinero
  in
  match load ~on_error path with
  | Error e -> Error e
  | Ok i ->
    let p = Analytical.prepare i.Trace_io.trace in
    Ok (Analytical.stats p, Analytical.histograms p, i.Trace_io.skipped, i.Trace_io.errors)

let streamed_file ~on_error ~format path =
  match Analytical.stream_file ~on_error ~format path with
  | Error e -> Error e
  | Ok s ->
    Ok
      ( s.Analytical.stats,
        s.Analytical.histograms,
        s.Analytical.ingest.Trace_io.skipped,
        s.Analytical.ingest.Trace_io.errors )

let policies = [ Trace_io.Fail; Trace_io.Skip; Trace_io.Stop_after 2 ]

let same_on_every_policy ~format path =
  List.for_all
    (fun on_error -> streamed_file ~on_error ~format path = materialised ~on_error ~format path)
    policies

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let test_stream_file_damage () =
  let addrs = Array.init 40 (fun i -> if i mod 5 = 4 then 1 lsl 20 else scatter (i mod 13)) in
  let clean = Filename.temp_file "dse_stream" ".bin" in
  let damaged = Filename.temp_file "dse_stream" ".bin" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ clean; damaged ])
    (fun () ->
      (match Trace_io.save_binary clean (Trace.of_addresses addrs) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Dse_error.to_string e));
      let bytes = In_channel.with_open_bin clean In_channel.input_all in
      check_bool "the clean file" true (same_on_every_policy ~format:`Binary clean);
      let cases = ref 0 in
      let check what bytes =
        write_file damaged bytes;
        incr cases;
        if not (same_on_every_policy ~format:`Binary damaged) then Alcotest.fail what
      in
      for len = 0 to String.length bytes - 1 do
        check (Printf.sprintf "truncated to %d bytes" len) (String.sub bytes 0 len)
      done;
      String.iteri
        (fun i c ->
          List.iter
            (fun x ->
              let b = Bytes.of_string bytes in
              Bytes.set b i (Char.chr (Char.code c lxor x));
              check (Printf.sprintf "byte %d xor 0x%02x" i x) (Bytes.to_string b))
            [ 0x01; 0x80; 0xff ])
        bytes;
      check_int "cases" (4 * String.length bytes) !cases;
      (* text: garbage lines among well-formed ones *)
      write_file damaged "R 0x10\nQ 0x12\nW 0x400\nR zz\nR -5\n\nF 0x10\ngarbage\nR 0x7\n";
      check_bool "garbage text lines" true (same_on_every_policy ~format:`Text damaged))

(* -- the streaming kernel through the Analytical facade, against the
   oracle and the simulator -- *)

let oracle ?line_words trace prepared =
  Oracle.histograms (Oracle.stripped ?line_words trace) ~max_level:(Analytical.max_level prepared)

let test_streaming_paper () =
  let trace = Paper_example.trace () in
  let prepared = Analytical.prepare trace in
  check_bool "histograms identical" true (Analytical.histograms prepared = oracle trace prepared);
  Alcotest.(check (list (pair int int)))
    "pairs" [ (1, 5); (2, 3); (4, 2); (8, 2); (16, 1) ]
    (Optimizer.optimal_pairs (Analytical.explore_prepared prepared ~k:0))

(* the facade's max_level clamp and line folding, against the oracle *)
let prop_streaming_equals_materialized =
  prop "streaming histograms = materialized DFS histograms (random line_words, max_level)"
    QCheck2.Gen.(triple gen_addresses gen_line_words (int_range (-1) 8))
    (fun (addrs, line_words, max_level) ->
      let trace = Trace.of_addresses addrs in
      let prepared = Analytical.prepare ~max_level ~line_words trace in
      Analytical.histograms prepared = oracle ~line_words trace prepared)

(* four-way exactness: arena = BCAT walk = fused DFS = LRU simulator *)
let prop_streaming_exact_vs_simulator =
  prop ~count:150 "streaming misses = BCAT walk = DFS = simulated LRU non-cold misses"
    QCheck2.Gen.(
      quad gen_addresses (map (fun k -> 1 lsl k) (int_bound 5)) (int_range 1 6) gen_line_words)
    (fun (addrs, depth, associativity, line_words) ->
      QCheck2.assume (Array.length addrs > 0);
      let trace = Trace.of_addresses addrs in
      let prepared = Analytical.prepare ~line_words trace in
      let depth = min depth (1 lsl Analytical.max_level prepared) in
      let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
      let level = log2 depth and stripped = Oracle.stripped ~line_words trace in
      let arena = Analytical.misses prepared ~depth ~associativity in
      let dfs =
        Optimizer.misses_of_histogram (Oracle.histograms stripped ~max_level:level).(level)
          ~associativity
      in
      let sim =
        (Cache.simulate (Config.make ~line_words ~depth ~associativity ()) trace).Cache.misses
      in
      arena = Oracle.bcat_misses stripped ~level ~associativity && arena = dfs && arena = sim)

let prop_explore_methods_agree =
  prop ~count:80 "explore: streaming = dfs = bcat walk" gen_addresses (fun addrs ->
      QCheck2.assume (Array.length addrs > 0);
      let trace = Trace.of_addresses addrs in
      let prepared = Analytical.prepare trace in
      let stripped = Oracle.stripped trace and max_level = Analytical.max_level prepared in
      let pairs = Optimizer.optimal_pairs in
      let arena = pairs (Analytical.explore_prepared prepared ~k:7) in
      arena = pairs (Oracle.dfs_explore stripped ~max_level ~k:7)
      && arena = pairs (Oracle.bcat_explore stripped ~max_level ~k:7))

let test_streaming_empty_trace () =
  let trace = Trace.create () in
  let prepared = Analytical.prepare trace in
  check_bool "matches the oracle" true (Analytical.histograms prepared = oracle trace prepared)

let test_streaming_single_ref () =
  let prepared = Analytical.prepare (Trace.of_addresses [| 42 |]) in
  Array.iter
    (fun h -> Alcotest.(check (array int)) "cold only" [| 0 |] h)
    (Analytical.histograms prepared);
  check_int "no non-cold misses" 0 (Analytical.misses prepared ~depth:1 ~associativity:1)

(* every occurrence after the first is warm with an empty conflict set *)
let test_streaming_repeated_single_address () =
  let trace = Trace.of_addresses (Array.make 1000 5) in
  let prepared = Analytical.prepare trace in
  check_bool "matches the oracle" true (Analytical.histograms prepared = oracle trace prepared);
  check_int "no misses" 0 (Analytical.misses prepared ~depth:2 ~associativity:1)

(* kernel and oracle refuse a negative level alike; the facade clamps a
   negative max_level to 0 and rejects a depth below 1 *)
let test_streaming_rejects_negative_level () =
  let trace = Trace.of_addresses [| 1; 2 |] in
  let prepared = Analytical.prepare trace in
  Alcotest.check_raises "kernel" (Invalid_argument "Arena_kernel: negative max_level") (fun () ->
      ignore (Arena_kernel.stream_create ~max_level:(-1) ()));
  Alcotest.check_raises "oracle" (Invalid_argument "Dfs_optimizer: negative max_level")
    (fun () -> ignore (Oracle.histograms (Oracle.stripped trace) ~max_level:(-1)));
  check_int "clamped max_level" 0
    (Analytical.max_level (Analytical.prepare ~max_level:(-1) (Trace.of_addresses [| 1 |])));
  Alcotest.check_raises "depth below 1"
    (Invalid_argument "Analytical.misses: depth must be a positive power of two") (fun () ->
      ignore (Analytical.misses prepared ~depth:0 ~associativity:1))

let test_facade_defaults () =
  let trace = Paper_example.trace () in
  let prepared = Analytical.prepare trace in
  let stripped = Oracle.stripped trace and max_level = Analytical.max_level prepared in
  check_bool "explore = BCAT walk" true
    (Optimizer.optimal_pairs (Analytical.explore_prepared prepared ~k:0)
    = Optimizer.optimal_pairs (Oracle.bcat_explore stripped ~max_level ~k:0));
  check_int "misses facade" 5 (Analytical.misses prepared ~depth:1 ~associativity:1);
  check_bool "stats from the stream run" true
    (Analytical.stats prepared = Stats.compute_stripped stripped)

let suites =
  [
    ( "arena",
      [
        Alcotest.test_case "i32 arena round-trip" `Quick test_i32_roundtrip;
        Alcotest.test_case "word_grow preserves prefix, zeroes tail" `Quick test_word_grow;
      ] );
    ( "arena-kernel",
      [
        Alcotest.test_case "paper example strip" `Quick test_strip_paper_example;
        prop_stream_stats_equal_boxed;
        Alcotest.test_case "empty trace" `Quick test_strip_empty_trace;
        Alcotest.test_case "bad line_words rejected" `Quick test_strip_rejects_bad_line_words;
        prop_arena_equals_materialized;
        prop_arena_wide_addresses;
        Alcotest.test_case "minor words flat in N" `Quick test_kernel_minor_words_flat;
        Alcotest.test_case "negative levels rejected" `Quick test_arena_rejects_negative_level;
        Alcotest.test_case "repeated single address" `Quick test_arena_repeated_single_address;
        Alcotest.test_case "pre-cancelled token" `Quick test_arena_cancellation;
      ] );
    ( "arena-slots",
      [
        prop_slots_tiny_working_set;
        prop_slots_one_shot_prefix;
        prop_slots_word_boundary;
        Alcotest.test_case "dead-slot adversary" `Quick test_slots_dead_slot_adversary;
      ] );
    ("arena-step", [ prop_step_equals_oracle; prop_compact_equals_oracle ]);
    ( "arena-stream",
      [
        prop_stream_equals_oracle;
        prop_stream_reset_equals_fresh;
        prop_stream_bytes_counts_every_arena;
        Alcotest.test_case "reset after a level-0 cap" `Quick test_stream_reset_after_level_zero;
        Alcotest.test_case "edges: empty, all cold, widest address" `Quick test_stream_edges;
        Alcotest.test_case "growth fallback: many level arenas outgrown at once" `Quick
          test_stream_growth_fallback;
        Alcotest.test_case "minor words flat in N" `Quick test_stream_minor_words_flat;
        Alcotest.test_case "file damage: stream = materialised" `Quick test_stream_file_damage;
      ] );
    ("arena-powerstone", List.map powerstone_identity_case (Registry.all ()));
    ( "streaming:equivalence",
      [
        Alcotest.test_case "paper example" `Quick test_streaming_paper;
        prop_streaming_equals_materialized;
        prop_streaming_exact_vs_simulator;
        prop_explore_methods_agree;
      ] );
    ( "streaming:edges",
      [
        Alcotest.test_case "empty trace" `Quick test_streaming_empty_trace;
        Alcotest.test_case "single reference" `Quick test_streaming_single_ref;
        Alcotest.test_case "repeated single address" `Quick
          test_streaming_repeated_single_address;
        Alcotest.test_case "negative level rejected" `Quick test_streaming_rejects_negative_level;
        Alcotest.test_case "facade defaults" `Quick test_facade_defaults;
      ] );
  ]
