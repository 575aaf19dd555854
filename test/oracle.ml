(* The paper-faithful reference path the production arena kernel is
   checked against: boxed strip -> MRCT (Algorithm 2) -> BCAT walk
   (Algorithms 1 + 3) or the fused DFS of section 2.4. Slow and
   O(N * N') in memory, which is why it is test-only. *)

(* The boxed strip of [trace] folded to [line_words]-word lines (default
   1): the prelude the arena kernel's stream must agree with. *)
let stripped ?(line_words = 1) trace =
  Strip.strip (Trace.of_addresses (Array.map (fun a -> a / line_words) (Trace.addresses trace)))

let histograms stripped ~max_level =
  Dfs_optimizer.histograms ~addresses:stripped.Strip.uniques (Mrct.build stripped) ~max_level

let bcat_explore stripped ~max_level ~k =
  Optimizer.explore (Bcat.build ~max_level (Zero_one.build stripped)) (Mrct.build stripped) ~k

let dfs_explore stripped ~max_level ~k =
  Dfs_optimizer.explore ~addresses:stripped.Strip.uniques (Mrct.build stripped) ~max_level ~k

let bcat_misses stripped ~level ~associativity =
  Optimizer.misses_at
    (Bcat.build ~max_level:level (Zero_one.build stripped))
    (Mrct.build stripped) ~level ~associativity

(* The postlude by its definition (paper Algorithm 3): scan
   associativities upward from 1 and stop at the first whose suffix-sum
   miss count meets the budget. O(width x A) per level, re-summing at
   every step; [Optimizer.of_histograms] must equal it field by field. *)
let level_result ~k ~level histogram =
  let rec search a =
    let m = Optimizer.misses_of_histogram histogram ~associativity:a in
    if m <= k then (a, m) else search (a + 1)
  in
  let min_associativity, misses = search 1 in
  {
    Optimizer.level;
    depth = 1 lsl level;
    min_associativity;
    misses;
    zero_miss_associativity = max 1 (Array.length histogram);
  }

let of_histograms ~k histograms =
  { Optimizer.k; levels = Array.mapi (fun level h -> level_result ~k ~level h) histograms }

(* The kernel's conflict-count step in OCaml, the oracle for the C step
   [Arena_kernel.count_conflicts]: same arguments, same additions to
   [depth_count], same packed [dead * 64 + (top + 1)] result, one word
   and one level at a time. [bits] holds [planes] + 1 words per slot
   word: the alive mask, then bit [l] of each slot's address in plane
   [l]. A SWAR popcount of a non-negative int below 2^62: the first
   mask skips bit 62, and the byte sum (at most 62) fits in the 7 bits
   the 63-bit multiply leaves above bit 56. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let count_conflicts (bits : Arena.word) planes au p next_slot (depth_count : Arena.word) =
  let stride = planes + 1 in
  let first = p lsr 6 in
  let top = ref (-1) and dead = ref 0 in
  for w = first to (next_slot - 1) lsr 6 do
    let base = w * stride in
    let alive = bits.{base} in
    if alive = 0 then incr dead
    else begin
      let m = ref (if w = first then alive land lnot ((2 lsl (p land 63)) - 1) else alive) in
      let l = ref 0 in
      while !m <> 0 do
        let level = !l in
        depth_count.{level} <- depth_count.{level} + popcount !m;
        if level = planes then m := 0
        else m := !m land lnot (bits.{base + 1 + level} lxor -((au lsr level) land 1));
        l := level + 1
      done;
      if !l - 1 > !top then top := !l - 1
    end
  done;
  (!dead * 64) + !top + 1

(* The kernel's compaction by its definition, the oracle for
   [Arena_kernel.compact_words]: list the alive slots of words
   [from .. stop - 1] in order, clear those words, and place the listed
   ids again one by one from slot [from * 64], skipping slots 62 and 63
   of every word, each slot's planes rebuilt from its id's address
   ([address u]). Returns the next free slot. *)
let compact_words ~address (bits : Arena.word) planes (id_of : Arena.i32) (slot_of : Arena.i32)
    from stop =
  let stride = planes + 1 in
  let alive = ref [] in
  for s = from * 64 to (stop * 64) - 1 do
    if (bits.{(s lsr 6) * stride} lsr (s land 63)) land 1 = 1 then
      alive := Int32.to_int id_of.{s} :: !alive
  done;
  for i = from * stride to (stop * stride) - 1 do
    bits.{i} <- 0
  done;
  let set i bit = bits.{i} <- bits.{i} lor bit in
  List.fold_left
    (fun d u ->
      let base = (d lsr 6) * stride and bit = 1 lsl (d land 63) in
      set base bit;
      for l = 0 to planes - 1 do
        if (address u lsr l) land 1 = 1 then set (base + 1 + l) bit
      done;
      id_of.{d} <- Int32.of_int u;
      slot_of.{u} <- Int32.of_int d;
      if (d + 1) land 63 = 62 then d + 3 else d + 1)
    (from * 64) (List.rev !alive)
