(** High-level entry points tying the prelude and postlude together
    (the paper's Figure 2 pipeline: strip -> MRCT/BCAT -> optimal set).

    Every entry point runs the one production kernel, {!Arena_kernel}.
    The paper-faithful path — {!Mrct}, {!Bcat}, {!Zero_one},
    {!Dfs_optimizer} and {!Optimizer.explore} — is kept as the test
    oracle; callers that want it build it from
    [Arena_kernel.to_strip (arena_strip prepared)]. *)

(** The exact analysis method. One constructor: the fused kernel on
    off-heap {!Arena_kernel} bigarrays, whose strip, slot state and
    tallies are GC-invisible and shared by reference across shard
    domains, so peak {e heap} is O(1) in N. Kept as a type because it is
    the exact half of the served method field. *)
type method_ = Arena

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

(** [arena_strip prepared] is the off-heap strip the kernel runs on —
    read-only, shareable across domains by reference. *)
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

(** [histograms ?cancel ?domains prepared] is the per-level
    conflict-cardinality histograms, the shared currency of every
    postlude — bit-identical to the materialized oracle (property
    tested). [domains] (default 1) shards the trace into windows.
    [cancel] (default {!Cancel.none}) makes the run cooperatively
    cancellable: the kernel polls it every {!Cancel.poll_mask}+1
    references and sharded runs poll at shard boundaries; expiry raises
    a typed {!Dse_error.Deadline_exceeded}. *)
val histograms : ?cancel:Cancel.t -> ?domains:int -> prepared -> int array array

(** [explore_prepared ?cancel ?domains prepared ~k] runs the postlude
    for one budget. *)
val explore_prepared : ?cancel:Cancel.t -> ?domains:int -> prepared -> k:int -> Optimizer.t

(** [explore_many ?domains prepared ~ks] answers several budgets from a
    single histogram computation — the "prelude once, postlude per
    constraint" economy the paper's flow is built around. Results are in
    the order of [ks] and identical to per-budget {!explore_prepared}
    calls. *)
val explore_many : ?domains:int -> prepared -> ks:int list -> Optimizer.t list

(** [explore ?max_level ?line_words ?domains trace ~k] is
    [explore_prepared (prepare trace) ~k]. *)
val explore :
  ?max_level:int -> ?line_words:int -> ?domains:int -> Trace.t -> k:int -> Optimizer.t

(** [misses ?domains prepared ~depth ~associativity] is the model's
    exact non-cold miss count for one configuration. [depth] must be a
    power of two no greater than [2 ^ max_level]. *)
val misses : ?domains:int -> prepared -> depth:int -> associativity:int -> int
