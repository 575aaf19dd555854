(** Memory Reference Conflict Table (paper Algorithm 2, Table 4).

    For each unique reference [u] and each of its occurrences *after the
    first* (the first is always a cold miss), the table holds the set of
    distinct other references that appeared in the trace since [u]'s
    previous occurrence. An occurrence of [u] misses in a cache of depth
    [D] and LRU associativity [A] exactly when at least [A] of those
    conflicting references map to [u]'s cache row.

    Construction walks a recency list (most recently used first): the
    references more recent than [u]'s previous occurrence are precisely
    the prefix of the list above [u], so each conflict set is produced in
    time proportional to its size — the hash-table speedup the paper
    describes in section 2.4, with total cost O(N * N') in the worst
    case and O(output size) in practice. *)

type t

(** [build stripped] constructs the table. *)
val build : Strip.t -> t

(** [num_unique t] is N'. *)
val num_unique : t -> int

(** [conflict_sets t u] is the array of conflict sets for identifier [u],
    one per warm occurrence, in occurrence order. Each set is an array of
    distinct identifiers, never containing [u] itself. *)
val conflict_sets : t -> int -> int array array

(** [iter f t] applies [f u conflict_set] for every warm occurrence of
    every identifier [u]. *)
val iter : (int -> int array -> unit) -> t -> unit

(** [total_sets t] is the number of conflict sets = N - N'. *)
val total_sets : t -> int

(** [volume t] is the summed cardinality of all conflict sets (the memory
    footprint driver). *)
val volume : t -> int
