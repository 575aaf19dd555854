(* The paper-faithful reference path the production arena kernel is
   checked against: boxed strip -> MRCT (Algorithm 2) -> BCAT walk
   (Algorithms 1 + 3) or the fused DFS of section 2.4. Slow and
   O(N * N') in memory, which is why it is test-only. *)

(* The boxed strip the arena kernel was built from (equal to
   [Strip.strip] of the line-folded trace). *)
let stripped prepared = Arena_kernel.to_strip (Analytical.arena_strip prepared)

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
