(** The streaming fused MRCT->histogram kernel on off-heap arenas — the
    one production exact kernel ([--method arena]).

    It counts the same conflict sets as {!Mrct.build} without ever
    listing them. Every id met so far owns one {e slot}, the position
    of its last access in access order, so the conflict set [C] of a
    warm occurrence of [u] is exactly the alive slots after [u]'s.
    Slots pack 62 to a word, and each word keeps an alive mask plus
    one bit-plane per address bit: bit [b] of plane [l] is bit [l] of
    the address in the word's slot [b], the paper's zero/one sets
    restricted to 62 slots. The references of [C] that share [u]'s
    depth-[2^l] row are the alive slots whose planes [0 .. l-1] agree
    with [u]'s address, so a word's contribution to every level is one
    AND per plane and one popcount per level, stopping at the first
    level with none — [|C ∩ S|] for every level of the BCAT at once.
    The per-slot work is C: one call per warm occurrence counts its
    conflicts ({!count_conflicts}, each level one hardware popcount),
    records them into the level histograms and kills the old slot;
    placing a slot and compacting the slot words ({!compact_words})
    are C functions too. The interner and every arena's growth stay in
    OCaml.
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
    - the slot state: a slot -> id map over about 1.5 N' slots, an
      id -> slot map, and the alive masks and bit-planes. A warm
      occurrence clears its old slot and takes the next one. Dead
      slots are squeezed out, in order and without allocating, when
      the slots run out or when the all-dead words scanned since the
      last compaction outnumber the words in use; compaction starts at
      the first word holding a dead slot, so a long-lived prefix never
      moves. No membership set is kept, because ids are assigned in
      first-occurrence order and so a reference is warm exactly when
      its id is below the count of distinct ids seen so far;
    - per-level tallies, their largest counts and [depth_count]
      accumulate in word arenas, grown geometrically, and are boxed
      once at the end.

    One per-reference step (count conflicts, record, kill, compact,
    place) is driven by one caller, the {e stream} ({!stream_create},
    {!stream_add}): it interns each address as it arrives, from
    {!Trace_io.iter}, an upload's record bytes or {!Trace.iter_addrs},
    and steps it at once. It holds O(N') state: no trace and no
    per-reference array. Its slot state grows as N' does (the capacity
    to about 1.5 N' at a compaction; one zero bit-plane and one empty
    tally level when the widest address gains a bit), and nothing is
    ever recounted. *)

(** [count_conflicts bits planes au p next_slot depth_count] is the
    kernel's conflict count, a [[@@noalloc]] C function, exposed for its
    step-level property test; the stream runs it inside its one C call
    per warm occurrence, which also records the counts and kills [p].
    [bits] holds [planes] + 1 words per 62-slot word: the alive mask,
    then the [planes] bit-planes, where bit [b] of plane [l] is bit [l]
    of the address in slot [b]. For a warm occurrence of address [au]
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
  Arena.word ->
  (int[@untagged]) = "dse_count_conflicts_byte" "dse_count_conflicts"
[@@noalloc]

(** [compact_words bits planes id_of slot_of from stop] is the kernel's
    compaction, a [[@@noalloc]] C function, exposed for its property
    test. [bits] is laid out as for {!count_conflicts}; [id_of] maps
    slot to id and [slot_of] id to slot. It squeezes the dead slots of
    words [from .. stop - 1] out, keeping the alive ones in order from
    slot [from * 64] on (slots 62 and 63 of every word stay unused):
    their alive bits and planes move with them, [id_of] and [slot_of]
    follow, and every other bit of those words is cleared. It returns
    the next free slot. The words from [stop] on must be all zero. *)
external compact_words :
  Arena.word ->
  (int[@untagged]) ->
  Arena.i32 ->
  Arena.i32 ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "dse_compact_byte" "dse_compact"
[@@noalloc]

(** {2 The stream} *)

(** A one-pass exact analysis in progress: the interner, growable slot
    state and tallies. O(N') memory whatever N is. *)
type stream

(** [stream_create ?line_words ?max_level ()] is an empty stream.
    [line_words] (default 1, must be a power of two) folds word
    addresses to line addresses before interning. [max_level] caps the
    levels counted; the final level range is [min max_level
    address_bits] (default: the address bits). Raises
    [Invalid_argument] on a negative [max_level] or a bad
    [line_words]. *)
val stream_create : ?line_words:int -> ?max_level:int -> unit -> stream

(** [stream_add s addr] interns word address [addr] (never negative) and
    counts it, allocating nothing unless a table grows. *)
val stream_add : stream -> int -> unit

(** [stream_stats s] is the statistics of the line addresses added so
    far, equal to [Stats.compute] of them: every field is recorded while
    interning. *)
val stream_stats : stream -> Stats.t

(** [stream_histograms s] is the per-level conflict-cardinality
    histograms of the addresses added so far ([result.(l).(c)] counts
    warm occurrences whose conflict set meets their depth-[2^l] row in
    exactly [c] references), at levels [0 .. min max_level
    address_bits]. *)
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
