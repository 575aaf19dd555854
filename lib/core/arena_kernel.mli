(** The streaming fused MRCT->histogram kernel on off-heap arenas — the
    one production exact kernel ([--method arena]).

    It counts the same conflict sets as {!Mrct.build} without ever
    listing them. Every id met so far owns one {e slot}, the position
    of its last access in access order, so the conflict set [C] of a
    warm occurrence of [u] is exactly the alive slots after [u]'s.
    Slots pack 62 to a word, and each word keeps an alive mask plus
    one bit-plane per address bit, taken relative to the address in
    the word's first slot: the paper's zero/one sets restricted to 62
    slots. The references of [C] that share [u]'s
    depth-[2^l] row are the alive slots whose planes [0 .. l-1] agree
    with [u]'s address, so a word's contribution to every level is one
    AND per plane and one popcount per level, stopping at the first
    level with none — [|C ∩ S|] for every level of the BCAT at once.
    That step is one C function ({!count_conflicts}), so each level
    costs one hardware popcount.
    Output is bit-identical to the materialized oracle ({!Mrct.build}
    + {!Dfs_optimizer.histograms}, the BCAT walk of
    {!Optimizer.explore}, and the LRU simulator — property tested).
    Every hot table lives in {!Arena} bigarrays the GC neither scans,
    copies, nor counts in [top_heap_words]:

    - the strip (per-reference ids + unique line addresses) is built
      {e directly from the trace} — the boxed line-address array,
      [Hashtbl], and [Strip.t] of the classic prelude never exist — and
      is shared by reference across shard domains;
    - the slot state: a slot -> id map over about 2 N' slots, an
      id -> slot map, and the alive masks, base addresses and
      bit-planes. A warm
      occurrence clears its old slot and takes the next one. Dead
      slots are squeezed out, in order and without allocating, when
      the slots run out or when the all-dead words scanned since the
      last compaction outnumber the words in use; compaction starts at
      the first word holding a dead slot, so a long-lived prefix never
      moves. No membership set is kept, because ids are assigned in
      first-occurrence order and so a reference is warm exactly when
      its id is below the count of distinct ids seen so far;
    - per-level tallies and [depth_count] accumulate in per-shard word
      arenas merged straight into the final histograms, no intermediate
      per-shard arrays.

    Per-reference footprint drops from ~50 B (boxed trace + strip +
    recency, all GC-scanned) to 4 B of ids plus O(N') side state, which
    is what makes 10^9-reference traces representable.

    [domains > 1] shards the {e trace} into per-domain windows. Each
    shard rebuilds the slot state at the start [lo] of its window from
    last-access order in O(lo + N'), then tallies its own window; warm
    occurrences partition by position, so the merge is exact. Sharded runs are fault-isolated
    through {!Shard_exec}: a crashing domain is retried once in a fresh
    domain, then its window is recomputed sequentially; only when all
    three attempts fail does a typed {!Dse_error.Shard_failure} escape.
    [cancel] (default {!Cancel.none}) is polled every
    {!Cancel.poll_mask}+1 references of both prologue passes and the
    tally loop; expiry raises a typed {!Dse_error.Deadline_exceeded},
    which is never retried. *)

(** A read-only stripped trace in flat arenas. Safe to share across
    domains: after {!of_trace} returns it is never written again. *)
type strip

(** [of_trace ?line_words trace] strips in one pass: folds word
    addresses to line addresses ([line_words] default 1, must be a power
    of two), assigns ids in first-occurrence order (identical to
    {!Strip.strip}), and records the depth-1 direct-mapped miss count
    and address width as it goes. Raises a typed
    {!Dse_error.Constraint_violation} if the unique count overflows the
    int32 id arena. *)
val of_trace : ?line_words:int -> Trace.t -> strip

val num_refs : strip -> int

val num_unique : strip -> int

(** [address_bits s] is the bits needed for the widest line address; at
    least 1. Matches {!Strip.address_bits} of the boxed view. *)
val address_bits : strip -> int

(** [stats s] is O(1): every field was recorded during the build, so the
    arena path reports {!Stats.t} without re-scanning or boxing. Equal to
    [Stats.compute_stripped] of the boxed view. *)
val stats : strip -> Stats.t

(** [to_strip s] is the boxed {!Strip.t} view, equal to [Strip.strip] of
    the source trace — the bridge to the materializing oracle (MRCT,
    DFS, BCAT walk) and the conflict-table printers. Costs O(N + N') boxed
    words; the arena path never calls it. *)
val to_strip : strip -> Strip.t

(** [count_conflicts bits stride planes au p next_slot depth_count] is
    the kernel's conflict-count step, a [[@@noalloc]] C function,
    exposed for its step-level property test. [bits] holds [stride] =
    [planes] + 2 words per 62-slot word: the alive mask, [planes]
    bit-planes, the base address. For a warm occurrence of address [au]
    last seen in slot [p], it scans the words from [p]'s to
    [next_slot - 1]'s and adds to [depth_count.{l}] the alive slots
    after [p] whose address agrees with [au] on bits [0 .. l-1], per
    word until none agree or level [planes] is counted. It returns
    [dead * 64 + (top + 1)]: [top] is the deepest level counted (-1 if
    none) and [dead] the number of all-dead words scanned. *)
external count_conflicts :
  Arena.word ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  Arena.word ->
  (int[@untagged]) = "dse_count_conflicts_byte" "dse_count_conflicts"
[@@noalloc]

(** [min_shard_refs] is the smallest per-domain window (in trace
    references) for which sharding is attempted; below it the
    sequential kernel runs regardless of [domains]. *)
val min_shard_refs : int

(** [histograms ?cancel ?domains ?shard_threshold s ~max_level] is the
    per-level conflict-cardinality histograms ([result.(l).(c)] counts
    warm occurrences whose conflict set meets their depth-[2^l] row in
    exactly [c] references). [domains] (default 1, clamped to at least
    1) shards the trace into windows; every shard reads the same strip
    arenas by reference. [shard_threshold] (default {!min_shard_refs})
    is the smallest per-domain window for which sharding is attempted —
    tests lower it to exercise the sharded path on short traces. Raises
    [Invalid_argument] on a negative [max_level]. *)
val histograms :
  ?cancel:Cancel.t ->
  ?domains:int ->
  ?shard_threshold:int ->
  strip ->
  max_level:int ->
  int array array

(** [explore ?cancel ?domains ?shard_threshold s ~max_level ~k] runs the
    postlude on the arena histograms. *)
val explore :
  ?cancel:Cancel.t ->
  ?domains:int ->
  ?shard_threshold:int ->
  strip ->
  max_level:int ->
  k:int ->
  Optimizer.t

(** [misses ?cancel ?domains ?shard_threshold s ~level ~associativity]
    is the exact non-cold miss count of the [2^level] x [associativity]
    LRU cache. *)
val misses :
  ?cancel:Cancel.t ->
  ?domains:int ->
  ?shard_threshold:int ->
  strip ->
  level:int ->
  associativity:int ->
  int
