(* The streaming fused MRCT->histogram kernel (see the interface): the
   conflict counts of [Mrct.build] taken straight from bit-planes of the
   last-access slots, level by level, into per-level histograms. Every
   hot table is an [Arena] bigarray the GC neither scans nor copies:

     interner     word arenas: id -> line address, 8 B/unique; an
                  open-addressing table at most half full, 16-32 B/unique
     slot state   i32 slot -> id map, ~6 B/unique at ~1.5 N' slots;
                  i32 id -> slot map, 4 B/unique;
                  alive mask and bit-planes, 8 B per 62 slots each
     tallies      word arenas, grown geometrically off-heap

   One driver, the stream ([stream_add]), interns each address as it
   arrives and steps it at once with the per-reference [step], so a run
   holds O(N') state and never a per-reference array. Its slot state and
   tallies grow as it goes.

   The per-slot work is C (arena_kernel_stubs.c), in [@@noalloc]
   externals with untagged int arguments, so a call costs no runtime
   transition: the warm step ([warm_step]: the conflict count, the
   kernel's whole cost on most traces, with each level one hardware
   popcount, then its recording and the kill), the placement of a slot
   ([place_bits]) and compaction ([compact_words]). The interner, the
   growth of every arena and the compaction policy stay here.

   Outputs are bit-identical to the materialized oracle: identical
   first-occurrence id assignment, identical histogram growth/trim
   semantics. *)

(* Hot-path accessors duplicated from [Arena], local to this unit: the
   dev profile compiles interfaces opaquely, so a cross-module
   [Arena.i32_get] in the walk is a generic [caml_apply2] per element —
   measured 3x slower than the same walk on boxed arrays on the
   10M-reference bench.
   Applied here the bigarray primitives compile to direct loads. *)
let i32_get (a : Arena.i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i) [@@inline]

let i32_set (a : Arena.i32) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v) [@@inline]

let word_get (a : Arena.word) i : int = Bigarray.Array1.unsafe_get a i [@@inline]

let word_set (a : Arena.word) i (v : int) = Bigarray.Array1.unsafe_set a i v [@@inline]

(* -- the interner ---------------------------------------------------- *)

(* ids are narrowed to int32, and so are the kernel's slot indices,
   which reach about 1.5 N' x 64/62 (see [words_for]). Any trace
   with this many distinct lines is far past what the daemon admits, but
   the guard turns silent truncation into a typed refusal. *)
let max_uniques = 1_000_000_000

let too_many_uniques () =
  Dse_error.fail
    (Dse_error.Constraint_violation
       {
         context = "Arena_kernel.intern";
         message =
           Printf.sprintf "more than %d unique line addresses overflow the int32 arena"
             max_uniques;
       })

(* Address -> first-occurrence id, plus the trace statistics recorded as
   it goes. An open-addressing table over a word arena: a cell holds
   id+1 (0 = empty), keys compared through [uniques]. Fibonacci-style
   multiplicative hash; power-of-two capacity kept at most half full. *)
type interner = {
  offset_bits : int;  (* word address -> line address shift *)
  mutable uniques : Arena.word;  (* id -> line address; first [count] entries live *)
  mutable table : Arena.word;
  mutable table_bits : int;
  mutable count : int;  (* N': ids handed out so far *)
  mutable refs : int;  (* N: addresses interned so far *)
  mutable max_address : int;
  mutable direct_misses : int;  (* id changes, the depth-1 direct-mapped misses *)
  mutable last_id : int;
}

let hash_mix a = a * 0x2545F4914F6CDD1D

let home it a = (hash_mix a lsr (63 - it.table_bits)) land ((1 lsl it.table_bits) - 1)
[@@inline]

let interner_create ~context ~line_words =
  if line_words < 1 || line_words land (line_words - 1) <> 0 then
    invalid_arg (context ^ ": line_words must be a positive power of two");
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  {
    offset_bits = log2 line_words 0;
    uniques = Arena.word_create 4096;
    table = Arena.word_create (1 lsl 13);
    table_bits = 13;
    count = 0;
    refs = 0;
    max_address = 0;
    direct_misses = 0;
    last_id = -1;
  }

let rehash it =
  it.table_bits <- it.table_bits + 1;
  let table = Arena.word_create (1 lsl it.table_bits) in
  let mask = (1 lsl it.table_bits) - 1 in
  for id = 0 to it.count - 1 do
    let slot = ref (home it (word_get it.uniques id)) in
    while word_get table !slot <> 0 do
      slot := (!slot + 1) land mask
    done;
    word_set table !slot (id + 1)
  done;
  it.table <- table

(* The next id, for line address [a] found missing at table cell [slot]. *)
let add_unique it a slot =
  let id = it.count in
  if id > max_uniques then too_many_uniques ();
  if id = Arena.word_length it.uniques then
    it.uniques <- Arena.word_grow it.uniques ~len:id ~capacity:(2 * id);
  word_set it.uniques id a;
  word_set it.table slot (id + 1);
  it.count <- id + 1;
  if a > it.max_address then it.max_address <- a;
  if 2 * it.count >= 1 lsl it.table_bits then rehash it;
  id

(* [intern it raw] is the id of word address [raw]'s line, a fresh one
   on its first occurrence. Addresses are never negative (every reader
   rejects them), and folding by [offset_bits] preserves the sign, so no
   per-element validity check is needed here. Allocates nothing. *)
let intern it raw =
  let a = raw lsr it.offset_bits in
  let table = it.table and uniques = it.uniques in
  let mask = (1 lsl it.table_bits) - 1 in
  let slot = ref (home it a) in
  let id = ref (-1) in
  while !id < 0 do
    let entry = word_get table !slot in
    if entry = 0 then id := add_unique it a !slot
    else if word_get uniques (entry - 1) = a then id := entry - 1
    else slot := (!slot + 1) land mask
  done;
  let id = !id in
  it.refs <- it.refs + 1;
  if id <> it.last_id then it.direct_misses <- it.direct_misses + 1;
  it.last_id <- id;
  id

(* bits needed for [v]; at least 1 *)
let bits_of v =
  let rec bits v acc = if v = 0 then max acc 1 else bits (v lsr 1) (acc + 1) in
  bits v 0

let interner_stats it =
  {
    Stats.n = it.refs;
    n_unique = it.count;
    address_bits = bits_of it.max_address;
    max_misses = max 0 (it.direct_misses - it.count);
  }

(* -- the fused kernel -------------------------------------------------- *)

(* Slot state. Every id met so far owns one slot, the position of its
   last access in access order, so slots are ordered by recency and the
   conflict set of a warm occurrence of [u] is exactly the ids alive in
   the slots after [u]'s. A word holds 62 slots: bit 62 is the sign bit
   of an OCaml int, and keeping it clear keeps [lsr] and the masks
   simple. Slot [s] lives in word [s lsr 6] at bit [s land 63]; bits 62
   and 63 are skipped, so finding a slot is a shift and a mask.

   Word [w] owns [stride st] = [planes] + 1 consecutive entries of [bits]:
   the alive mask, then one bit-plane per address bit [0 .. planes-1].
   Bit [b] of plane [l] is bit [l] of the address in the word's slot
   [b]: the paper's zero/one sets restricted to 62 slots. The conflicts
   that share [u]'s depth-[2^l] row are the alive slots where planes
   [0 .. l-1] agree with [u]'s address, and agreement on bit [l] is
   equality with one constant per reference, [-((au lsr l) land 1)]:
   one AND per plane and one popcount per level.

   Dead slots are not reused; [compact] squeezes them out in order. The
   state grows in three ways: [slot_of] doubles when an id outgrows it,
   a compaction widens the capacity to about 1.5 N', and [add_planes]
   appends planes when the widest address gains a bit. *)
type slots = {
  mutable id_of : Arena.i32;  (* slot -> id, meaningful for alive slots *)
  mutable slot_of : Arena.i32;  (* id -> last-access slot *)
  mutable bits : Arena.word;
  mutable planes : int;
  mutable words : int;  (* capacity, in words: about 1.5 N' slots, always above N' *)
  mutable next_slot : int;
  mutable first_dead : int;  (* lowest word holding a dead slot; [words] if none *)
  mutable dead_scanned : int;  (* all-dead words scanned since the last compaction *)
}

let slots_per_word = 62

let stride st = st.planes + 1 [@@inline]

let succ_slot s =
  let s = s + 1 in
  if s land 63 = slots_per_word then s + 2 else s
[@@inline]

(* One plane per address bit, up to [max_level]: level [max_level] is
   recorded and the count stops there. The top plane never narrows a
   count to a nonempty set (two distinct addresses that agree on every
   lower bit differ there), but the stream keeps it: then every address
   seen lies below 2^planes when planes are not capped, so a plane
   added for a new top bit is zero in every live slot.
   Capacity is about 1.5 N' slots, so a compaction that moves every
   alive slot comes at most once per N'/2 references, but never fewer
   than [min_words] words: a trace over a few dozen lines would
   otherwise compact every few dozen references. A compaction moves a
   word's slots with a few dozen word operations per plane, so the
   smaller capacity scans less and costs little more in compaction
   (measured 1.5 against 2 N' in DESIGN.md section 6). *)
let min_words = 16

let planes_for ~max_level ~address_bits = min max_level address_bits

let words_for n_unique = max min_words (((3 * n_unique / 2) + slots_per_word - 1) / slots_per_word)

let slots_create ~n_unique ~planes =
  let words = words_for n_unique in
  {
    id_of = Arena.i32_create (words * 64);
    slot_of = Arena.i32_create n_unique;
    bits = Arena.word_create (words * (planes + 1));
    planes;
    words;
    next_slot = 0;
    first_dead = words;
    dead_scanned = 0;
  }

(* Words in use: every word past the one holding [next_slot - 1] is
   all zero. *)
let words_used st = (st.next_slot + 63) lsr 6

(* Re-lay [bits] with [planes] planes per word: the alive masks and the
   existing planes move over, the new planes stay zero, and nothing is
   recounted. Zero is right for every live slot: planes are added only
   while they span the widest address, so every address seen lies below
   the old 2^planes. *)
let add_planes st planes =
  let old = stride st and stride = planes + 1 in
  let bits = Arena.word_create (st.words * stride) in
  for w = 0 to words_used st - 1 do
    let src = w * old and dst = w * stride in
    for i = 0 to st.planes do
      word_set bits (dst + i) (word_get st.bits (src + i))
    done
  done;
  st.bits <- bits;
  st.planes <- planes

(* Mark [slot] alive and OR the one-bits of address [a] below [planes]
   into its planes, which are clear: a slot is written once between
   zeroings. A C function (arena_kernel_stubs.c) that visits only the
   one-bits. *)
external place_bits :
  Arena.word -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "dse_place_byte" "dse_place"
[@@noalloc]

let place st uniques u =
  let slot = st.next_slot in
  place_bits st.bits st.planes slot (word_get uniques u);
  i32_set st.id_of slot u;
  i32_set st.slot_of u slot;
  st.next_slot <- succ_slot slot

(* [compact_words bits planes id_of slot_of from stop] squeezes the dead
   slots of words [from .. stop - 1] out, in order, from slot
   [from * 64]: each word's alive mask and planes are compressed by its
   alive mask and deposited at the next free slot, split across the
   62-slot boundary when they straddle it, and the moved slots' [id_of]
   and [slot_of] entries follow. The words past the last one written
   are left zero. Returns the next free slot. One C function
   (arena_kernel_stubs.c), which allocates nothing. *)
external compact_words :
  Arena.word ->
  (int[@untagged]) ->
  Arena.i32 ->
  Arena.i32 ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "dse_compact_byte" "dse_compact"
[@@noalloc]

(* Squeeze the dead slots out, preserving order, from the first word
   that holds one, so a long-lived prefix never moves. First the
   capacity widens to about 1.5 [n_unique] slots if it is below that. A
   compaction that does not widen allocates nothing. *)
let compact st ~n_unique =
  let target = words_for n_unique in
  if target > st.words then begin
    let used = words_used st in
    st.id_of <- Arena.i32_grow st.id_of ~len:(used * 64) ~capacity:(target * 64);
    st.bits <- Arena.word_grow st.bits ~len:(used * stride st) ~capacity:(target * stride st);
    st.words <- target
  end;
  let from = min st.first_dead (st.next_slot lsr 6) in
  st.next_slot <- compact_words st.bits st.planes st.id_of st.slot_of from (words_used st);
  st.first_dead <- st.words;
  st.dead_scanned <- 0;
  (* every arena access is unchecked, so check the capacity here, once
     per compaction: [words_for] leaves about N'/2 free slots *)
  if st.next_slot >= st.words * 64 then failwith "Arena_kernel.compact: slot capacity below N'"

(* Two rules keep scans short. A full slot array must compact. So must a
   run of dead words: once the all-dead words scanned since the last
   compaction outnumber the words in use, scanning them again would cost
   more than squeezing them out. *)
let needs_compaction st = st.next_slot = st.words * 64 || st.dead_scanned > words_used st

(* Count one warm occurrence of [u], last seen in slot [p], into
   [depth_count]: level [l] gets the alive slots after [p] whose
   addresses agree with [au] on bits [0 .. l-1], the conflicts that
   share [u]'s depth-[2^l] row. Each word stops at the first level with
   no such slot, and at [planes]. It returns [dead * 64 + (top + 1)],
   with [top] the deepest level counted (-1 for an empty conflict set)
   and [dead] the all-dead words scanned. The count of [warm_step]
   alone, kept for its property test. *)
external count_conflicts :
  Arena.word ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  Arena.word ->
  (int[@untagged]) = "dse_count_conflicts_byte" "dse_count_conflicts"
[@@noalloc]

(* Growable per-level histograms in word arenas; growth and trim match
   [Dfs_optimizer] exactly so kernel and oracle stay bit-identical.
   [max_c.{l}] is the largest count level [l] has recorded. [add_levels]
   appends empty levels as a stream's planes grow. *)
type tally = {
  mutable hists : Arena.word array;
  mutable max_c : Arena.word;
  mutable depth_count : Arena.word;  (* zero between steps *)
  mutable max_level : int;
}

let tally_create max_level =
  if max_level < 0 then invalid_arg "Arena_kernel: negative max_level";
  {
    hists = Array.init (max_level + 1) (fun _ -> Arena.word_create 1);
    max_c = Arena.word_create (max_level + 1);
    depth_count = Arena.word_create (max_level + 1);
    max_level;
  }

(* A reset stream keeps the levels of its earlier jobs, cleared, so
   [hists] may already hold the arenas for the new levels. *)
let add_levels t max_level =
  let old = t.max_level in
  let have = Array.length t.hists in
  if max_level >= have then begin
    t.hists <-
      Array.init (max_level + 1) (fun l -> if l < have then t.hists.(l) else Arena.word_create 1);
    t.max_c <- Arena.word_grow t.max_c ~len:have ~capacity:(max_level + 1)
  end;
  if max_level >= Arena.word_length t.depth_count then
    t.depth_count <- Arena.word_grow t.depth_count ~len:(old + 1) ~capacity:(max_level + 1);
  t.max_level <- max_level

(* [warm_step bits planes au p next_slot depth_count hists max_c] is the
   whole step of a warm occurrence in one C call: [count_conflicts],
   then levels [0 .. top] recorded into [hists] and [max_c] and cleared
   from [depth_count], then slot [p] killed. A count past its level
   arena's length stops the recording at that level. It returns
   [dead * 4096 + pending * 64 + (top + 1)], with [pending] the first
   level left unrecorded ([top + 1] when none is). *)
external warm_step :
  Arena.word ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  Arena.word ->
  Arena.word array ->
  Arena.word ->
  (int[@untagged]) = "dse_warm_step_byte" "dse_warm_step"
[@@noalloc]

(* The recording [warm_step] leaves to OCaml: one occurrence of count
   [c] at [level], growing the level's arena first. *)
let record t level c =
  let h = t.hists.(level) in
  let h =
    if c >= Arena.word_length h then begin
      let bigger =
        Arena.word_grow h ~len:(Arena.word_length h)
          ~capacity:(max (c + 1) (2 * Arena.word_length h))
      in
      t.hists.(level) <- bigger;
      bigger
    end
    else h
  in
  word_set h c (word_get h c + 1);
  if c > word_get t.max_c level then word_set t.max_c level c

(* Record levels [pending .. top] of [depth_count] and clear them. The
   level counts are nonincreasing in l, so every level up to [top]
   records a nonzero count: the same (level, count) pairs as a suffix
   sum over the conflicts' shared levels. Kept out of [step] so that its
   body has no loop and it inlines (without flambda, a loop stops
   inlining). *)
let record_levels t pending top =
  let depth_count = t.depth_count in
  for l = pending to top do
    record t l (word_get depth_count l);
    word_set depth_count l 0
  done

(* The kernel's per-reference step: one reference of id [u], where
   [seen] is the count of distinct ids met before it. No membership set
   is needed: ids are assigned in first-occurrence order, so the
   reference is warm exactly when [u < seen] (and cold when [u = seen]).
   A warm one records its conflict counts and kills its old slot, in one
   C call unless a count outgrows its level's arena; either way it takes
   the next slot, after a compaction if one is due. *)
let step st t uniques ~seen u =
  if u < seen then begin
    let p = i32_get st.slot_of u in
    let r =
      warm_step st.bits st.planes (word_get uniques u) p st.next_slot t.depth_count t.hists
        t.max_c
    in
    st.dead_scanned <- st.dead_scanned + (r lsr 12);
    let top = (r land 63) - 1 and pending = (r lsr 6) land 63 in
    if pending <= top then record_levels t pending top;
    if p lsr 6 < st.first_dead then st.first_dead <- p lsr 6
  end
  else if u = Bigarray.Array1.dim st.slot_of then
    st.slot_of <- Arena.i32_grow st.slot_of ~len:u ~capacity:(2 * u);
  if needs_compaction st then compact st ~n_unique:(max seen (u + 1));
  place st uniques u
[@@inline]

(* -- the stream: intern and step each address as it arrives ----------- *)

(* The level range is [min cap bits], with [bits] the width of the
   widest line address so far; the planes and the tally levels grow
   with it. *)
type stream = {
  interner : interner;
  slots : slots;
  tally : tally;
  mutable cap : int;  (* the [max_level] cap; [max_int] when unset *)
  mutable bits : int;
}

let cap_of = function
  | None -> max_int
  | Some m when m < 0 -> invalid_arg "Arena_kernel: negative max_level"
  | Some m -> m

let stream_create ?(line_words = 1) ?max_level () =
  let cap = cap_of max_level in
  let levels = planes_for ~max_level:cap ~address_bits:1 in
  {
    interner = interner_create ~context:"Arena_kernel.stream_create" ~line_words;
    slots = slots_create ~n_unique:0 ~planes:levels;
    tally = tally_create levels;
    cap;
    bits = 1;
  }

(* A new widest address: more planes and levels, if the cap allows. *)
let widen s a =
  s.bits <- bits_of a;
  let levels = planes_for ~max_level:s.cap ~address_bits:s.bits in
  if levels > s.tally.max_level then begin
    add_planes s.slots levels;
    add_levels s.tally levels
  end

let stream_add s raw =
  let it = s.interner in
  let seen = it.count in
  let u = intern it raw in
  if u = seen && word_get it.uniques u lsr s.bits <> 0 then widen s (word_get it.uniques u);
  step s.slots s.tally it.uniques ~seen u

let stream_stats s = interner_stats s.interner

(* The levels of the addresses added so far. A reset stream may carry
   more planes and tally levels than that from an earlier job; those
   levels count nothing (no two live slots agree on every address bit),
   so they are left off. *)
let stream_histograms s =
  let t = s.tally in
  Array.init
    (planes_for ~max_level:s.cap ~address_bits:s.bits + 1)
    (fun l -> Array.init (word_get t.max_c l + 1) (Arena.word_get t.hists.(l)))

(* Empty every table in place for the next trace. The arenas keep their
   sizes, and so do the planes and tally levels (up to the new cap): a
   later trace that needs no larger table than an earlier one grows
   nothing. Only the cells the last trace wrote are cleared, so a small
   trace after a large one pays for its own size: the table cells of
   its uniques, its words in use (every later word is zero), and each
   histogram up to its largest count. *)
let stream_reset ?max_level s =
  let cap = cap_of max_level in
  let it = s.interner and st = s.slots and t = s.tally in
  let mask = (1 lsl it.table_bits) - 1 in
  for id = 0 to it.count - 1 do
    let slot = ref (home it (word_get it.uniques id)) in
    while word_get it.table !slot <> id + 1 do
      slot := (!slot + 1) land mask
    done;
    word_set it.table !slot 0
  done;
  for i = 0 to (words_used st * stride st) - 1 do
    word_set st.bits i 0
  done;
  it.count <- 0;
  it.refs <- 0;
  it.max_address <- 0;
  it.direct_misses <- 0;
  it.last_id <- -1;
  (* as many planes as a fresh stream starts with, at least *)
  let planes = max (planes_for ~max_level:cap ~address_bits:1) (min st.planes cap) in
  st.planes <- planes;
  st.words <- min (Arena.i32_length st.id_of / 64) (Arena.word_length st.bits / stride st);
  st.next_slot <- 0;
  st.first_dead <- st.words;
  st.dead_scanned <- 0;
  Array.iteri
    (fun l h ->
      for c = 0 to word_get t.max_c l do
        word_set h c 0
      done)
    t.hists;
  Bigarray.Array1.fill t.max_c 0;
  Bigarray.Array1.fill t.depth_count 0;
  if planes > t.max_level then add_levels t planes else t.max_level <- planes;
  s.cap <- cap;
  s.bits <- 1

(* -- statistics alone: the interner without the kernel ---------------- *)

type counter = interner

let counter_create () =
  interner_create ~context:"Arena_kernel.counter_create" ~line_words:1

let counter_add it raw = ignore (intern it raw)

let counter_stats = interner_stats

let stream_bytes s =
  let bytes = Bigarray.Array1.size_in_bytes in
  let it = s.interner and st = s.slots and t = s.tally in
  bytes it.uniques + bytes it.table + bytes st.id_of + bytes st.slot_of + bytes st.bits
  + bytes t.max_c + bytes t.depth_count
  + Array.fold_left (fun acc h -> acc + bytes h) 0 t.hists
