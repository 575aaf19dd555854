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
