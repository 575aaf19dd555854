(** The 12 PowerStone-style benchmarks of the paper's Tables 5-32. *)

(** [all ()] lists the benchmarks in the paper's (alphabetical) order:
    adpcm, bcnt, blit, compress, crc, des, engine, fir, g3fax, pocsag,
    qurt, ucbqsort. The list is built on the first call, from any
    domain, and shared after that. *)
val all : unit -> Workload.t list

(** [find name] looks a benchmark up by name in {!all}. Raises
    [Not_found]. *)
val find : string -> Workload.t

(** [names ()] is the list of benchmark names, in order. *)
val names : unit -> string list

(** [scaled factor] is the suite with every kernel's input sizes grown by
    [factor] (names suffixed ["@factor"] for [factor > 1]); used for the
    run-time scaling studies. *)
val scaled : int -> Workload.t list
