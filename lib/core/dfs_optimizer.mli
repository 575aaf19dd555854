(** Space-efficient combined prelude/postlude (paper section 2.4).

    The paper notes Algorithms 1 and 3 can be fused so the BCAT is never
    materialised, dropping space from exponential to linear. This module
    goes one step further: two references [u] and [v] share a cache row
    at every depth [2^l] with [l <= ctz (addr u lxor addr v)] (the number
    of common low-order bits), so a single pass over the MRCT computes
    the per-level histograms for *all* depths at once, without any tree.

    Results are bit-for-bit identical to {!Optimizer.explore} (property
    tested). Together with {!Mrct} it is the materialized oracle the
    production {!Arena_kernel} is checked against. *)

(** [explore ~addresses mrct ~max_level ~k] runs the exploration.
    [addresses] maps identifiers to their addresses (from {!Strip});
    [max_level] is the largest log2 depth to evaluate. *)
val explore : addresses:int array -> Mrct.t -> max_level:int -> k:int -> Optimizer.t

(** [histograms ~addresses mrct ~max_level] exposes the per-level
    histograms (index = level). *)
val histograms : addresses:int array -> Mrct.t -> max_level:int -> int array array
