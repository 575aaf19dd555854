(** High-level entry points tying the prelude and postlude together
    (the paper's Figure 2 pipeline: strip -> MRCT/BCAT -> optimal set).

    Every entry point runs the one production kernel, {!Arena_kernel}:
    {!stream_file} in one pass from a trace file in O(N') memory
    ([dse explore]), {!stream_records} in one pass from an upload's
    record bytes (every exact [dse serve] job), the rest on a
    {!prepared} strip of a {!Trace.t} already in memory. The paper-faithful
    path — {!Mrct}, {!Bcat}, {!Zero_one}, {!Dfs_optimizer} and
    {!Optimizer.explore} — is kept as the test oracle; callers that
    want it build it from
    [Arena_kernel.to_strip (arena_strip prepared)]. *)

(** The exact analysis method. One constructor: the fused kernel on
    off-heap {!Arena_kernel} bigarrays, whose interner, slot state and
    tallies are GC-invisible, so peak {e heap} is O(1) in N. Kept as a
    type because it is the exact half of the served method field. *)
type method_ = Arena

(** {2 One pass over a trace file} *)

(** What one pass computed: the statistics (N, N', address bits,
    depth-1 miss ceiling), the per-level histograms, the off-heap bytes
    the kernel held at the end (its peak), and the reader's
    skipped-record summary. *)
type streamed = {
  stats : Stats.t;
  histograms : int array array;
  arena_bytes : int;
  ingest : Trace_io.stream;
}

(** [stream_file ?max_level ?on_error ?format path] decodes
    the trace file at [path] with {!Trace_io.iter} and feeds each
    address straight into {!Arena_kernel}'s stream, in one pass and
    O(N') memory: no {!Trace.t} and no id arena are built. [stats] and
    [histograms] equal {!stats} and {!histograms} of
    [prepare ?max_level] over the loaded trace, and read
    errors are those of the materialising loaders.

    The run starts at the {!Fault} hook: an armed [fail] raises a typed
    {!Dse_error.Shard_failure}, an armed [hang] blocks before anything
    is read. *)
val stream_file :
  ?max_level:int ->
  ?on_error:Trace_io.on_error ->
  ?format:Trace_io.format ->
  string ->
  (streamed, Dse_error.t) result

(** {2 One pass over record bytes, on a reused stream} *)

(** [stream_records ?cancel ?max_level records] is the
    statistics and histograms of the trace [records] holds, equal to
    {!stats} and {!histograms} of [prepare ?max_level] over
    [Trace_records.to_trace records]. The records are decoded straight
    into an {!Arena_kernel} stream, so no {!Trace.t}, id arena or
    per-trace table is built.

    The stream belongs to the calling domain: created on its first
    call, {!Arena_kernel.stream_reset} on each later one, so a domain
    that runs job after job (a [dse serve] worker) allocates its arenas
    once. A call whose stream ends holding more than {!retain_bytes}
    off-heap, or that raises, releases it. [cancel] is polled every
    {!Cancel.poll_mask}+1 references. The run starts at the {!Fault}
    hook, as {!stream_file} does, before its first poll. *)
val stream_records :
  ?cancel:Cancel.t -> ?max_level:int -> Trace_records.t -> Stats.t * int array array

(** 4 MiB: a stream that held more after its job is not kept. *)
val retain_bytes : int

(** [retained_bytes ()] is the off-heap bytes of the stream the calling
    domain keeps for its next {!stream_records}, if it keeps one. *)
val retained_bytes : unit -> int option

(** {2 The materialised prelude} *)

(** The prelude result, reusable across budgets K: the off-heap arena
    strip plus the level range and line size it was built for. *)
type prepared

(** [prepare ?max_level ?line_words trace] runs the prelude phase once:
    one pass over the trace into the off-heap arena strip, with no
    boxed intermediates. [max_level] defaults to the number of address
    bits and is clamped to it.

    [line_words] (default 1, the paper's fixed choice) extends the model
    to larger lines: word addresses are folded to line addresses before
    stripping, which keeps the characterisation exact for LRU since
    conflicts happen between lines. Must be a power of two. *)
val prepare : ?max_level:int -> ?line_words:int -> Trace.t -> prepared

(** [arena_strip prepared] is the off-heap strip the kernel runs on,
    read-only. *)
val arena_strip : prepared -> Arena_kernel.strip

(** [max_level prepared] is the number of address bits usable as index
    bits. *)
val max_level : prepared -> int

(** [line_words prepared] is the line size the trace was folded to. *)
val line_words : prepared -> int

(** [stats prepared] is the trace statistics (N, N', address bits,
    depth-1 miss ceiling), O(1): every field was recorded while the
    arena strip was built. Equal to [Stats.compute] of the folded
    trace. *)
val stats : prepared -> Stats.t

(** [histograms ?cancel prepared] is the per-level
    conflict-cardinality histograms, the shared currency of every
    postlude — bit-identical to the materialized oracle (property
    tested). [cancel] (default {!Cancel.none}) makes the run
    cooperatively cancellable: the kernel polls it every
    {!Cancel.poll_mask}+1 references; expiry raises a typed
    {!Dse_error.Deadline_exceeded}. *)
val histograms : ?cancel:Cancel.t -> prepared -> int array array

(** [explore_prepared ?cancel prepared ~k] runs the postlude for one
    budget. *)
val explore_prepared : ?cancel:Cancel.t -> prepared -> k:int -> Optimizer.t

(** [explore_many prepared ~ks] answers several budgets from a single
    histogram computation — the "prelude once, postlude per constraint"
    economy the paper's flow is built around. Results are in the order
    of [ks] and identical to per-budget {!explore_prepared} calls. *)
val explore_many : prepared -> ks:int list -> Optimizer.t list

(** [explore ?max_level ?line_words trace ~k] is
    [explore_prepared (prepare trace) ~k]. *)
val explore : ?max_level:int -> ?line_words:int -> Trace.t -> k:int -> Optimizer.t

(** [misses prepared ~depth ~associativity] is the model's exact
    non-cold miss count for one configuration. [depth] must be a power
    of two no greater than [2 ^ max_level]. *)
val misses : prepared -> depth:int -> associativity:int -> int
