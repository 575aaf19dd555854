(* The streaming fused MRCT->histogram kernel (see the interface): the
   conflict counts of [Mrct.build] taken straight from bit-planes of the
   last-access slots, level by level, into per-level histograms. Every
   hot table is an [Arena] bigarray the GC neither scans nor copies:

     ids          i32 arena, 4 B/ref   (vs 8 B boxed + GC scan)
     uniques      word arena, 8 B/unique
     slot state   i32 slot -> id map, ~8 B/unique at ~2 N' slots;
                  i32 id -> slot map, 4 B/unique;
                  alive mask, base address and bit-planes,
                  8 B per 62 slots each
     tallies      word arenas, grown geometrically off-heap

   The strip is built ONCE, directly from the trace — the boxed
   line-address array, [Hashtbl], and [Strip.t] of the classic prelude
   are never allocated — and shared by reference across shard domains:
   each [Shard_exec] closure captures the same handles, so a sharded run
   adds per-shard slot state (O(N')) and nothing proportional to N.

   The conflict-count step, the kernel's whole cost on most traces, is
   one C function ([count_conflicts], arena_kernel_stubs.c): a
   [@@noalloc] external with untagged int arguments, so each level costs
   one hardware popcount and a call costs no runtime transition. Slots,
   placement, compaction, tallies, sharding and cancellation stay here.

   Outputs are bit-identical to the materialized oracle: identical
   first-occurrence id assignment, identical histogram growth/trim
   semantics. *)

type strip = {
  ids : Arena.i32;  (* per-reference unique ids, read-only after build *)
  uniques : Arena.word;  (* id -> folded line address; first n' entries live *)
  n : int;
  n_unique : int;
  address_bits : int;
  max_misses : int;  (* depth-1 direct-mapped non-cold misses, free at build *)
}

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

let num_refs s = s.n

let num_unique s = s.n_unique

let address_bits s = s.address_bits

(* ids are narrowed to int32, and so are the kernel's slot indices,
   which reach about 2 N' x 64/62 (see [slots_create]). Any trace
   with this many distinct lines is far past what the daemon admits, but
   the guard turns silent truncation into a typed refusal. *)
let max_uniques = 1_000_000_000

let too_many_uniques () =
  Dse_error.fail
    (Dse_error.Constraint_violation
       {
         context = "Arena_kernel.of_trace";
         message =
           Printf.sprintf "more than %d unique line addresses overflow the int32 arena"
             max_uniques;
       })

(* Open-addressing hash table over a word arena: slot holds id+1 (0 =
   empty), keys compared through [uniques]. Fibonacci-style multiplicative
   hash; power-of-two capacity kept at most half full. *)
let hash_mix a = a * 0x2545F4914F6CDD1D

let of_trace ?(line_words = 1) trace =
  if line_words < 1 || line_words land (line_words - 1) <> 0 then
    invalid_arg "Arena_kernel.of_trace: line_words must be a positive power of two";
  let offset_bits =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 line_words 0
  in
  let n = Trace.length trace in
  let ids = Arena.i32_create n in
  let uniques = ref (Arena.word_create (min (max 16 n) 4096)) in
  let table_bits = ref 13 in
  let table = ref (Arena.word_create (1 lsl !table_bits)) in
  let count = ref 0 in
  let max_address = ref 0 in
  let direct_misses = ref 0 in
  let last_id = ref (-1) in
  let pos = ref 0 in
  let probe a =
    let mask = (1 lsl !table_bits) - 1 in
    let slot = ref (hash_mix a lsr (63 - !table_bits) land mask) in
    let found = ref (-1) in
    let stop = ref false in
    while not !stop do
      let entry = word_get !table !slot in
      if entry = 0 then stop := true
      else if word_get !uniques (entry - 1) = a then begin
        found := entry - 1;
        stop := true
      end
      else slot := (!slot + 1) land mask
    done;
    (!found, !slot)
  in
  let rehash () =
    table_bits := !table_bits + 1;
    table := Arena.word_create (1 lsl !table_bits);
    for id = 0 to !count - 1 do
      let _, slot = probe (word_get !uniques id) in
      word_set !table slot (id + 1)
    done
  in
  (* Trace.add already rejected negative addresses, and folding by
     [offset_bits] preserves the sign, so no per-element validity check
     is needed here. *)
  Trace.iter_addrs
    (fun raw ->
      let a = raw lsr offset_bits in
      let id =
        match probe a with
        | id, _ when id >= 0 -> id
        | _, slot ->
          if !count > max_uniques then too_many_uniques ();
          let id = !count in
          if id = Arena.word_length !uniques then
            uniques :=
              Arena.word_grow !uniques ~len:id ~capacity:(2 * Arena.word_length !uniques);
          word_set !uniques id a;
          word_set !table slot (id + 1);
          incr count;
          if a > !max_address then max_address := a;
          if 2 * !count >= 1 lsl !table_bits then rehash ();
          id
      in
      i32_set ids !pos id;
      if id <> !last_id then incr direct_misses;
      last_id := id;
      incr pos)
    trace;
  let address_bits =
    let rec bits v acc = if v = 0 then max acc 1 else bits (v lsr 1) (acc + 1) in
    bits !max_address 0
  in
  {
    ids;
    uniques = !uniques;
    n;
    n_unique = !count;
    address_bits;
    max_misses = max 0 (!direct_misses - !count);
  }

(* O(1) from fields recorded during the build: no trace re-scan, no
   boxed strip — the admission and reporting path for [--method arena]. *)
let stats s =
  {
    Stats.n = s.n;
    n_unique = s.n_unique;
    address_bits = s.address_bits;
    max_misses = s.max_misses;
  }

(* Boxed view for the materializing oracle and the Table-4 printers.
   Identical to [Strip.strip] by construction: ids are assigned in
   first-occurrence order in both builders. *)
let to_strip s =
  {
    Strip.uniques = Array.init s.n_unique (Arena.word_get s.uniques);
    ids = Array.init s.n (Arena.i32_get s.ids);
  }

(* -- the fused kernel -------------------------------------------------- *)

(* Slot state. Every id met so far owns one slot, the position of its
   last access in access order, so slots are ordered by recency and the
   conflict set of a warm occurrence of [u] is exactly the ids alive in
   the slots after [u]'s. A word holds 62 slots: bit 62 is the sign bit
   of an OCaml int, and keeping it clear keeps [lsr] and the masks
   simple. Slot [s] lives in word [s lsr 6] at bit [s land 63]; bits 62
   and 63 are skipped, so finding a slot is a shift and a mask.

   Word [w] owns [stride] consecutive entries of [bits]: the alive mask,
   one bit-plane per address bit [0 .. planes-1], and the word's base
   address [c], the address of its slot 0. Bit [b] of plane [l] is bit
   [l] of [a xor c] for the address [a] in the word's slot [b]. The
   planes are the paper's zero/one sets restricted to 62 slots, relative
   to [c]: XOR with [c] keeps agreement on every bit, and neighbouring
   slots usually share high bits, so placing a line sets fewer of them.
   The conflicts that share [u]'s depth-[2^l] row are the alive slots
   where planes [0 .. l-1] agree with [u]'s address xor [c]: one AND per
   plane and one popcount per level.

   Dead slots are not reused; [compact] squeezes them out in order. *)
type slots = {
  id_of : Arena.i32;  (* slot -> id, meaningful for alive slots *)
  slot_of : Arena.i32;  (* id -> last-access slot *)
  bits : Arena.word;
  planes : int;
  stride : int;
  words : int;  (* capacity, in words: about 2 N' slots, always above N' *)
  mutable next_slot : int;
  mutable first_dead : int;  (* lowest word holding a dead slot; [words] if none *)
  mutable dead_scanned : int;  (* all-dead words scanned since the last compaction *)
}

let slots_per_word = 62

let succ_slot s =
  let s = s + 1 in
  if s land 63 = slots_per_word then s + 2 else s
[@@inline]

(* [log2_of_pow2.[(2^l * debruijn) lsr 57]] is [l] for [l < 62]: the
   top six bits of the 63-bit product are a window of the de Bruijn
   sequence [debruijn], and its windows all differ. *)
let debruijn = 0x03f79d71b4cb0a89

let log2_of_pow2 =
  let t = Bytes.make 64 '\000' in
  for l = 0 to 61 do
    Bytes.set t (((1 lsl l) * debruijn) lsr 57) (Char.chr l)
  done;
  Bytes.unsafe_to_string t

(* Planes stop below the top address bit: two distinct addresses that
   agree on every lower bit differ there, so that plane would only ever
   empty the count after the deepest level with a conflict. They also
   stop at [max_level]: that level is recorded and the count stops.
   Capacity is about 2 N' slots, so a compaction that moves every alive
   slot comes at most once per N' references, but never fewer than
   [min_words] words: a trace over a few dozen lines would otherwise
   compact every few dozen references. *)
let min_words = 16

let slots_create s ~max_level =
  let planes = min max_level (s.address_bits - 1) in
  let words = max min_words (((2 * s.n_unique) + slots_per_word - 1) / slots_per_word) in
  {
    id_of = Arena.i32_create (words * 64);
    slot_of = Arena.i32_create s.n_unique;
    bits = Arena.word_create (words * (planes + 2));
    planes;
    stride = planes + 2;
    words;
    next_slot = 0;
    first_dead = words;
    dead_scanned = 0;
  }

(* Mark [slot] alive and OR the one-bits of address [a] xor the word's
   base into its planes, which are clear: a slot is written once between
   zeroings, and slot 0 of a word, written first, sets the base. The
   loop visits only the one-bits, each located by [log2_of_pow2]. *)
let set_slot_bits st slot a =
  let bits = st.bits in
  let base = (slot lsr 6) * st.stride in
  let bit = 1 lsl (slot land 63) in
  word_set bits base (word_get bits base lor bit);
  let word_base = base + 1 + st.planes in
  if bit = 1 then word_set bits word_base a;
  let a = ref ((a lxor word_get bits word_base) land ((1 lsl st.planes) - 1)) in
  while !a <> 0 do
    let low = !a land - !a in
    let at = base + 1 + Char.code (String.unsafe_get log2_of_pow2 ((low * debruijn) lsr 57)) in
    word_set bits at (word_get bits at lor bit);
    a := !a lxor low
  done

let place st uniques u =
  let slot = st.next_slot in
  set_slot_bits st slot (word_get uniques u);
  i32_set st.id_of slot u;
  i32_set st.slot_of u slot;
  st.next_slot <- succ_slot slot

let kill st slot =
  let w = slot lsr 6 in
  let base = w * st.stride in
  word_set st.bits base (word_get st.bits base land lnot (1 lsl (slot land 63)));
  if w < st.first_dead then st.first_dead <- w

(* Squeeze the dead slots out, preserving order, from the first word
   that holds one, so a long-lived prefix never moves; the moved slots'
   bits are rebuilt from their addresses. Plain loops over the arenas,
   with no sub-array proxy and no closure, so a compaction allocates
   nothing. *)
let compact st uniques =
  let from = min st.first_dead (st.next_slot lsr 6) and stop = (st.next_slot + 63) lsr 6 in
  let dst = ref (from * 64) in
  for w = from to stop - 1 do
    let alive = word_get st.bits (w * st.stride) in
    for b = 0 to slots_per_word - 1 do
      if (alive lsr b) land 1 = 1 then begin
        i32_set st.id_of !dst (i32_get st.id_of ((w * 64) + b));
        dst := succ_slot !dst
      end
    done
  done;
  for i = from * st.stride to (stop * st.stride) - 1 do
    word_set st.bits i 0
  done;
  let slot = ref (from * 64) in
  while !slot < !dst do
    let u = i32_get st.id_of !slot in
    set_slot_bits st !slot (word_get uniques u);
    i32_set st.slot_of u !slot;
    slot := succ_slot !slot
  done;
  st.next_slot <- !dst;
  st.first_dead <- st.words;
  st.dead_scanned <- 0

(* Two rules keep scans short. A full slot array must compact. So must a
   run of dead words: once the all-dead words scanned since the last
   compaction outnumber the words in use, scanning them again would cost
   more than squeezing them out. *)
let needs_compaction st =
  st.next_slot = st.words * 64 || st.dead_scanned > (st.next_slot + 63) lsr 6

(* Count one warm occurrence of [u], last seen in slot [p], into
   [depth_count]: level [l] gets the alive slots after [p] whose
   addresses agree with [au] on bits [0 .. l-1], the conflicts that
   share [u]'s depth-[2^l] row. Each word stops at the first level with
   no such slot, and at [planes]. One C function (arena_kernel_stubs.c)
   so that each level costs one hardware popcount; it returns
   [dead * 64 + (top + 1)], with [top] the deepest level counted (-1
   for an empty conflict set) and [dead] the all-dead words scanned. *)
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

(* Growable per-level histograms in word arenas; growth and trim match
   [Dfs_optimizer] exactly so kernel and oracle stay bit-identical.
   [max_c] is on-heap control state (levels+1 small ints), not data. *)
type tally = {
  hists : Arena.word array;
  max_c : int array;
  depth_count : Arena.word;
  max_level : int;
}

let tally_create max_level =
  if max_level < 0 then invalid_arg "Arena_kernel: negative max_level";
  {
    hists = Array.init (max_level + 1) (fun _ -> Arena.word_create 1);
    max_c = Array.make (max_level + 1) 0;
    depth_count = Arena.word_create (max_level + 1);
    max_level;
  }

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
  if c > t.max_c.(level) then t.max_c.(level) <- c

let tally_finish t =
  Array.init (t.max_level + 1) (fun l ->
      Array.init (t.max_c.(l) + 1) (Arena.word_get t.hists.(l)))

(* Merge shard tallies straight from their arenas into the final boxed
   histograms — no per-shard intermediate arrays. Width per level is the
   max across shards of (max_c + 1), floored at 1, so the merge equals
   the sequential run's trim. *)
let merge_tallies ~max_level parts =
  Array.init (max_level + 1) (fun level ->
      let width =
        List.fold_left (fun acc t -> max acc (t.max_c.(level) + 1)) 1 parts
      in
      let merged = Array.make width 0 in
      List.iter
        (fun t ->
          let h = t.hists.(level) in
          for c = 0 to t.max_c.(level) do
            merged.(c) <- merged.(c) + Arena.word_get h c
          done)
        parts;
      merged)

(* One trace window [lo, hi). The prologue builds the slot state at
   [lo] straight from last-access order in O(lo + N'): one pass records
   each id's last position in [0, lo) (in [slot_of]), a second places
   the ids in the order of those positions. No membership set is
   needed: [of_trace] assigns ids in first-occurrence order, so a
   reference is cold exactly when its id equals [seen], the count of
   distinct ids met so far, and warm exactly when [u < seen]. Warm
   occurrences partition by position, so summing window tallies is
   exact. *)
let window_tally ?(cancel = Cancel.none) s ~max_level ~lo ~hi =
  let t = tally_create max_level in
  let st = slots_create s ~max_level in
  let ids = s.ids and uniques = s.uniques and slot_of = st.slot_of in
  let seen = ref 0 in
  for j = 0 to lo - 1 do
    if j land Cancel.poll_mask = 0 then Cancel.check cancel;
    let u = i32_get ids j in
    if u = !seen then incr seen;
    i32_set slot_of u j
  done;
  for j = 0 to lo - 1 do
    if j land Cancel.poll_mask = 0 then Cancel.check cancel;
    let u = i32_get ids j in
    if i32_get slot_of u = j then place st uniques u
  done;
  let depth_count = t.depth_count in
  for j = lo to hi - 1 do
    if j land Cancel.poll_mask = 0 then Cancel.check cancel;
    let u = i32_get ids j in
    if u < !seen then begin
      let p = i32_get slot_of u in
      (* the level counts are nonincreasing in l, so every level up to
         [top] records a nonzero count: the same (level, count) pairs as
         a suffix sum over the conflicts' shared levels *)
      let r =
        count_conflicts st.bits st.stride st.planes (word_get uniques u) p st.next_slot
          depth_count
      in
      st.dead_scanned <- st.dead_scanned + (r lsr 6);
      let top = (r land 63) - 1 in
      for l = 0 to top do
        record t l (word_get depth_count l);
        word_set depth_count l 0
      done;
      kill st p
    end
    else incr seen;
    if needs_compaction st then compact st uniques;
    place st uniques u
  done;
  t

(* Each shard pays an O(lo + N') prologue, two passes over [0, lo)
   and one placement per id met there, so total prologue work is
   ~domains/2 passes over the trace; below this window size that and
   Domain.spawn outweigh the tally work split. The daemon's
   [Server.heavy_refs] reuses it as the size of a heavy job. *)
let min_shard_refs = 65536

let histograms ?(cancel = Cancel.none) ?(domains = 1) ?(shard_threshold = min_shard_refs) s
    ~max_level =
  let n = s.n in
  let domains = max 1 domains in
  if domains = 1 || n < domains * shard_threshold then
    tally_finish (window_tally ~cancel s ~max_level ~lo:0 ~hi:n)
  else begin
    let chunk = (n + domains - 1) / domains in
    match
      List.init domains (fun d -> (d * chunk, min n ((d + 1) * chunk)))
      |> List.filter (fun (lo, hi) -> lo < hi)
      |> Array.of_list
    with
    | [||] -> tally_finish (window_tally ~cancel s ~max_level ~lo:0 ~hi:n)
    | windows ->
      (* every shard closure captures the same [s]: the strip arenas are
         shared by reference across domains, read-only — no per-shard
         copies, boxed or otherwise *)
      merge_tallies ~max_level
        (Shard_exec.map ~cancel
           (fun shard ->
             let lo, hi = windows.(shard) in
             window_tally ~cancel s ~max_level ~lo ~hi)
           (Array.length windows))
  end

let explore ?cancel ?domains ?shard_threshold s ~max_level ~k =
  Optimizer.of_histograms ~k (histograms ?cancel ?domains ?shard_threshold s ~max_level)

let misses ?cancel ?domains ?shard_threshold s ~level ~associativity =
  if level < 0 then invalid_arg "Arena_kernel.misses: negative level";
  let hists = histograms ?cancel ?domains ?shard_threshold s ~max_level:level in
  Optimizer.misses_of_histogram hists.(level) ~associativity
