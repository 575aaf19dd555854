(* In-memory spans recorded from the benchmark's own side of each layer
   call: name, start, end, the span that caused it, the request it
   belongs to and the input it ran on. Spans are kept per domain (no
   lock on the recording path) and merged when the run ends. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* 0 = root *)
  req : int;  (* request id, -1 outside any request *)
  input : int;  (* workload input index, -1 when not tied to one *)
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enabled = Atomic.make false

let set_enabled b = Atomic.set enabled b

let is_enabled () = Atomic.get enabled

let next_id = Atomic.make 1

let registry_mu = Mutex.create ()

let registry : span list ref list ref = ref []

(* The open span on this domain: (id, req, input). *)
type frame = { fid : int; freq : int; finput : int }

let local : (span list ref * frame list ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let buf = ref [] in
      Mutex.lock registry_mu;
      registry := buf :: !registry;
      Mutex.unlock registry_mu;
      (buf, ref []))

let current () =
  let _, stack = Domain.DLS.get local in
  match !stack with f :: _ -> f | [] -> { fid = 0; freq = -1; finput = -1 }

let fresh_req () = Atomic.fetch_and_add next_id 1

(* [record] stores a span timed elsewhere (e.g. a child process's wall
   time), as a child of the open span. *)
let record ?input name ~start ~stop =
  if is_enabled () then begin
    let buf, _ = Domain.DLS.get local in
    let parent = current () in
    let span =
      {
        id = Atomic.fetch_and_add next_id 1;
        name;
        start;
        stop;
        parent = parent.fid;
        req = parent.freq;
        input = Option.value input ~default:parent.finput;
      }
    in
    buf := span :: !buf
  end

let with_ ?req ?input name f =
  if not (is_enabled ()) then f ()
  else begin
    let buf, stack = Domain.DLS.get local in
    let parent = current () in
    let frame =
      {
        fid = Atomic.fetch_and_add next_id 1;
        freq = Option.value req ~default:parent.freq;
        finput = Option.value input ~default:parent.finput;
      }
    in
    stack := frame :: !stack;
    let start = now () in
    let finish () =
      let stop = now () in
      stack := List.tl !stack;
      buf :=
        { id = frame.fid; name; start; stop; parent = parent.fid; req = frame.freq;
          input = frame.finput }
        :: !buf
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let all () =
  Mutex.lock registry_mu;
  let spans = List.concat_map (fun b -> !b) !registry in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> compare a.id b.id) spans

(* A span's self time is its duration minus the part its children
   cover. Children of one span never overlap (each domain records a
   strict call stack), so the covered part is the sum of theirs. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0. in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      (s, s.stop -. s.start -. covered))
    spans

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"self\":%.9f,\"parent\":%d,\
             \"req\":%d,\"input\":%d}\n"
            s.id s.name s.start s.stop self s.parent s.req s.input)
        (self_times spans))
