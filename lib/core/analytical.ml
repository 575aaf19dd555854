type method_ = Arena

type streamed = {
  stats : Stats.t;
  histograms : int array array;
  arena_bytes : int;
  ingest : Trace_io.stream;
}

(* [DSE_FAULT]'s kernel hook, at the start of every served or file run
   and before its first cancellation poll: a hang goes silent at once,
   exactly like a wedged loop, and spins rather than sleeping for good
   so tests can unwedge the zombie with [Fault.release_hangs]. *)
let inject_fault () =
  if Fault.should_hang () then
    while not (Fault.hang_released ()) do
      Unix.sleepf 0.01
    done;
  if Fault.should_fail () then
    Dse_error.fail
      (Dse_error.Shard_failure { shard = 0; attempts = 1; message = "injected fault (DSE_FAULT)" })

(* The one stream-feeding loop behind every exact run: each address goes
   straight into the kernel's interner and step, and [cancel] is polled
   every [Cancel.poll_mask] + 1 references. *)
let feeder ?(cancel = Cancel.none) s =
  let i = ref 0 in
  fun addr ->
    if !i land Cancel.poll_mask = 0 then Cancel.check cancel;
    incr i;
    Arena_kernel.stream_add s addr

let stream_file ?max_level ?on_error ?format path =
  inject_fault ();
  let max_level = Option.map (max 0) max_level in
  let s = Arena_kernel.stream_create ?max_level () in
  let add = feeder s in
  match Trace_io.iter ?on_error ?format path (fun ~addr ~kind:_ -> add addr) with
  | Error _ as e -> e
  | Ok ingest ->
    Ok
      {
        stats = Arena_kernel.stream_stats s;
        histograms = Arena_kernel.stream_histograms s;
        arena_bytes = Arena_kernel.stream_bytes s;
        ingest;
      }

(* The calling domain's retained stream, reset for each job rather than
   recreated, so a worker domain allocates its arenas once. *)
let domain_stream : Arena_kernel.stream option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let retain_bytes = 4 * 1024 * 1024

let stream_records ?cancel ?max_level records =
  inject_fault ();
  let max_level = Option.map (max 0) max_level in
  let s =
    match Domain.DLS.get domain_stream with
    | Some s ->
      Arena_kernel.stream_reset ?max_level s;
      s
    | None -> Arena_kernel.stream_create ?max_level ()
  in
  (* a job that raises (a deadline, a cancel) leaves nothing retained *)
  Domain.DLS.set domain_stream None;
  Trace_records.iter_addrs (feeder ?cancel s) records;
  let result = (Arena_kernel.stream_stats s, Arena_kernel.stream_histograms s) in
  if Arena_kernel.stream_bytes s <= retain_bytes then Domain.DLS.set domain_stream (Some s);
  result

let retained_bytes () = Option.map Arena_kernel.stream_bytes (Domain.DLS.get domain_stream)

(* The prelude's answer: every postlude only reads it. *)
type prepared = { stats : Stats.t; histograms : int array array }

let prepare ?cancel ?max_level ?(line_words = 1) trace =
  if line_words < 1 || line_words land (line_words - 1) <> 0 then
    invalid_arg "Analytical.prepare: line_words must be a positive power of two";
  let max_level = Option.map (max 0) max_level in
  let s = Arena_kernel.stream_create ~line_words ?max_level () in
  Trace.iter_addrs (feeder ?cancel s) trace;
  { stats = Arena_kernel.stream_stats s; histograms = Arena_kernel.stream_histograms s }

let stats (prepared : prepared) = prepared.stats

let histograms (prepared : prepared) = prepared.histograms

let max_level prepared = Array.length (histograms prepared) - 1

let explore_prepared prepared ~k = Optimizer.of_histograms ~k (histograms prepared)

let explore_many prepared ~ks = List.map (fun k -> explore_prepared prepared ~k) ks

let explore ?max_level ?line_words trace ~k =
  explore_prepared (prepare ?max_level ?line_words trace) ~k

let level_of_depth depth max_level =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  if depth < 1 || depth land (depth - 1) <> 0 then
    invalid_arg "Analytical.misses: depth must be a positive power of two";
  let level = log2 depth 0 in
  if level > max_level then
    invalid_arg
      (Printf.sprintf "Analytical.misses: depth %d exceeds max level %d" depth max_level);
  level

let misses prepared ~depth ~associativity =
  let level = level_of_depth depth (max_level prepared) in
  Optimizer.misses_of_histogram (histograms prepared).(level) ~associativity
