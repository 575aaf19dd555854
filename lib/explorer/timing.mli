(** Run-time measurement for the experiments (Tables 31/32, Figure 4).
    Samples are wall-clock: CPU time accumulates across OCaml 5 domains,
    so it silently over-reports as soon as a parallel postlude runs,
    corrupting the Figure-4 fit. *)

type sample = {
  name : string;
  n : int;  (** trace length N *)
  n_unique : int;  (** unique references N' *)
  seconds : float;  (** analytical algorithm run time *)
}

(** [time f] is [(f (), elapsed_cpu_seconds)]. CPU seconds accumulate
    across domains, so use {!time_wall} for parallel code. *)
val time : (unit -> 'a) -> 'a * float

(** [time_wall f] is [(f (), elapsed_wall_seconds)]. *)
val time_wall : (unit -> 'a) -> 'a * float

(** [analytical_sample ?repeats ~name trace] times a
    full analytical run (prelude + postlude at the paper's four budgets)
    in wall-clock seconds, keeping the best of [repeats] runs (default 1)
    to damp scheduler noise. *)
val analytical_sample : ?repeats:int -> name:string -> Trace.t -> sample

(** [work x] for Figure 4's x axis: [n * n_unique] as float. *)
val work : sample -> float

(** [linear_fit samples] is the least-squares [(slope, intercept, r2)] of
    seconds against [work] — the paper's linearity claim. *)
val linear_fit : sample list -> float * float * float
