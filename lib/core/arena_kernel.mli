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

    - the interner: line address -> id in first-occurrence order
      (identical to {!Strip.strip}), in an open-addressing table, with
      N, N', the address width and the depth-1 miss count recorded as it
      goes. The boxed line-address array, [Hashtbl], and [Strip.t] of
      the classic prelude never exist;
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
    - per-level tallies and [depth_count] accumulate in word arenas,
      grown geometrically, and are boxed once at the end.

    One per-reference step (count conflicts, record, kill, compact,
    place) serves two callers:

    - the {e stream} ({!stream_create}, {!stream_add}) interns each
      address as it arrives, for instance from {!Trace_io.iter}, and
      steps it at once. It holds O(N') state: no trace and no id arena.
      Its slot state grows as N' does (the capacity to about 2 N' at a
      compaction; one zero bit-plane and one empty tally level when the
      widest address gains a bit), and nothing is ever recounted. This
      is the production path: [dse explore] and every exact daemon job;
    - the {e strip} ({!of_trace}) interns a whole trace into a 4 B/ref
      id arena that {!histograms} walks in order: the path of a trace
      already in memory ({!Analytical.prepare}), and the random-access
      input of the oracle tests.

    [cancel] (default {!Cancel.none}) is polled every
    {!Cancel.poll_mask}+1 references; expiry raises a typed
    {!Dse_error.Deadline_exceeded}. *)

(** A read-only stripped trace in flat arenas: after {!of_trace}
    returns it is never written again. *)
type strip

(** [of_trace ?line_words trace] interns every address of [trace] into
    the id arena: folds word addresses to line addresses ([line_words]
    default 1, must be a power of two), assigns ids in first-occurrence
    order (identical to {!Strip.strip}), and records the depth-1
    direct-mapped miss count and address width as it goes. Raises a
    typed {!Dse_error.Constraint_violation} if the unique count
    overflows the int32 id arena. *)
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

(** [histograms ?cancel s ~max_level] is the per-level
    conflict-cardinality histograms ([result.(l).(c)] counts warm
    occurrences whose conflict set meets their depth-[2^l] row in
    exactly [c] references), in one pass over the strip. Raises
    [Invalid_argument] on a negative [max_level]. *)
val histograms : ?cancel:Cancel.t -> strip -> max_level:int -> int array array

(** [misses ?cancel s ~level ~associativity] is the exact non-cold miss
    count of the [2^level] x [associativity] LRU cache. *)
val misses : ?cancel:Cancel.t -> strip -> level:int -> associativity:int -> int

(** {2 The stream} *)

(** A one-pass exact analysis in progress: the interner, growable slot
    state and tallies. O(N') memory whatever N is. *)
type stream

(** [stream_create ?line_words ?max_level ()] is an empty stream.
    [line_words] is as for {!of_trace}. [max_level] caps the levels
    counted; the final level range is [min max_level address_bits], as
    {!Analytical.prepare} clamps it (default: the address bits). Raises
    [Invalid_argument] on a negative [max_level] or a bad
    [line_words]. *)
val stream_create : ?line_words:int -> ?max_level:int -> unit -> stream

(** [stream_add s addr] interns word address [addr] (never negative) and
    counts it, allocating nothing unless a table grows. *)
val stream_add : stream -> int -> unit

(** [stream_stats s] is the statistics of the addresses added so far,
    equal to {!stats} of {!of_trace} over them. *)
val stream_stats : stream -> Stats.t

(** [stream_histograms s] is the histograms of the addresses added so
    far: [histograms (of_trace t) ~max_level:(min max_level
    address_bits)] for the trace [t] of those addresses, bit for bit. *)
val stream_histograms : stream -> int array array

(** [stream_reset ?max_level s] empties [s] for a new trace, as if it
    were [stream_create ?max_level ()] with [s]'s [line_words], but
    keeps its arenas at their sizes. Tables grow only past what an
    earlier trace needed: a trace no larger than one [s] has already
    counted (the same trace, or a prefix of it) creates no arena. *)
val stream_reset : ?max_level:int -> stream -> unit

(** [stream_bytes s] is the off-heap bytes the stream's arenas hold.
    They only grow, so after the last {!stream_add} this is their
    peak. *)
val stream_bytes : stream -> int

(** {2 Statistics alone} *)

(** The stream's interner without the kernel: the {!Stats.t} of an
    address sequence in one pass and O(N') memory. *)
type counter

val counter_create : unit -> counter

(** [counter_add c addr] counts word address [addr] (never negative). *)
val counter_add : counter -> int -> unit

(** [counter_stats c] equals [Stats.compute] of the addresses added. *)
val counter_stats : counter -> Stats.t
