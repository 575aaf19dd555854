type method_ = Arena

(* The arena strip is the only representation: prepare builds it
   directly from the trace with no boxed intermediates. Oracle callers
   that need the boxed strip or the MRCT derive them with
   [Arena_kernel.to_strip] and [Mrct.build]. *)
type prepared = { arena : Arena_kernel.strip; max_level : int; line_words : int }

let arena_strip prepared = prepared.arena

let max_level prepared = prepared.max_level

let line_words prepared = prepared.line_words

let stats prepared = Arena_kernel.stats prepared.arena

let prepare ?max_level ?(line_words = 1) trace =
  if line_words < 1 || line_words land (line_words - 1) <> 0 then
    invalid_arg "Analytical.prepare: line_words must be a positive power of two";
  let arena = Arena_kernel.of_trace ~line_words trace in
  let bits = Arena_kernel.address_bits arena in
  let max_level =
    match max_level with None -> bits | Some m -> max 0 (min m bits)
  in
  { arena; max_level; line_words }

type streamed = {
  stats : Stats.t;
  histograms : int array array;
  arena_bytes : int;
  ingest : Trace_io.stream;
}

(* [DSE_FAULT]'s kernel hook, at the start of every exact run and before
   its first cancellation poll: a hang goes silent at once, exactly like
   a wedged loop, and spins rather than sleeping for good so tests can
   unwedge the zombie with [Fault.release_hangs]. *)
let inject_fault () =
  if Fault.should_hang () then
    while not (Fault.hang_released ()) do
      Unix.sleepf 0.01
    done;
  if Fault.should_fail () then
    Dse_error.fail
      (Dse_error.Shard_failure { shard = 0; attempts = 1; message = "injected fault (DSE_FAULT)" })

(* The one-pass path: each decoded address goes straight into the
   kernel's interner and step, so neither a [Trace.t] nor the id arena
   is built. *)
let stream_file ?max_level ?on_error ?format path =
  inject_fault ();
  let max_level = Option.map (max 0) max_level in
  let s = Arena_kernel.stream_create ?max_level () in
  let sink ~addr ~kind:_ = Arena_kernel.stream_add s addr in
  match Trace_io.iter ?on_error ?format path sink with
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

let stream_records ?(cancel = Cancel.none) ?max_level records =
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
  let i = ref 0 in
  Trace_records.iter_addrs
    (fun addr ->
      if !i land Cancel.poll_mask = 0 then Cancel.check cancel;
      incr i;
      Arena_kernel.stream_add s addr)
    records;
  let result = (Arena_kernel.stream_stats s, Arena_kernel.stream_histograms s) in
  if Arena_kernel.stream_bytes s <= retain_bytes then Domain.DLS.set domain_stream (Some s);
  result

let retained_bytes () = Option.map Arena_kernel.stream_bytes (Domain.DLS.get domain_stream)

let histograms ?cancel prepared =
  Arena_kernel.histograms ?cancel prepared.arena ~max_level:prepared.max_level

let explore_prepared ?cancel prepared ~k = Optimizer.of_histograms ~k (histograms ?cancel prepared)

let explore_many prepared ~ks =
  let histograms = histograms prepared in
  List.map (fun k -> Optimizer.of_histograms ~k histograms) ks

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
  let level = level_of_depth depth prepared.max_level in
  Arena_kernel.misses prepared.arena ~level ~associativity
