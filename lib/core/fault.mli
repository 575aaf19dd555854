(** Fault injection for testing failure replies and worker
    supervision.

    Every exact kernel run ({!Analytical.stream_file},
    {!Analytical.stream_records}) consults this hook once, at its start
    and before its first cancellation poll, so the failure path and the
    [dse serve] watchdog are exercisable in CI without OS tricks. An
    injection names a kind and how many consecutive runs it affects.

    With [kind = Fail] the run raises a typed
    {!Dse_error.Shard_failure} (exit class 5); nothing retries it, so
    under [dse serve] the job gets a typed error reply and the worker
    takes the next job.

    With [kind = Hang] the run blocks silently — no exception, no
    cancellation poll, no heartbeat — until {!release_hangs},
    simulating a wedged worker. Under [dse serve] the watchdog detects
    the silence past [--hang-timeout], abandons the domain and answers
    {!Dse_error.Worker_stalled}.

    The hook is off unless armed via {!set} (tests) or the [DSE_FAULT]
    environment variable (CLI, see {!install_from_env}). *)

type kind =
  | Fail  (** The kernel run raises {!Dse_error.Shard_failure}. *)
  | Hang  (** The kernel run blocks until {!release_hangs}. *)
  | Net_drop
      (** The next transport read/write raises [ECONNRESET] — a peer
          vanishing mid-frame. Consulted by [Transport], not the
          kernel. *)
  | Net_delay of int
      (** The next transport read/write stalls for the given number of
          milliseconds before proceeding — a congested or lossy link. *)

type spec = { kind : kind; times : int }

(** [parse s] reads ["fail"] / ["fail:T"] ([Fail] on the next kernel
    run, or the next [T]), ["hang"] / ["hang:T"] (same for [Hang]),
    ["net:drop:K"] ([Net_drop] on the next [K] transport operations) or
    ["net:delay:K:MS"] ([Net_delay MS], same budget scheme).
    Returns [None] on anything else. *)
val parse : string -> spec option

(** [set spec] arms ([Some]) or disarms ([None]) the injection. The
    attempt budget is reset and any previous {!release_hangs} is
    forgotten. *)
val set : spec option -> unit

(** [arm s] parses and arms in one step: [true] when [s] is a valid
    spec (now armed), [false] otherwise (armed state unchanged). The
    [dse chaos] harness uses it to fire schedule-scripted faults inside
    its own transport path. *)
val arm : string -> bool

(** [install_from_env ()] arms from [DSE_FAULT] if set and well-formed;
    disarms otherwise. *)
val install_from_env : unit -> unit

(** [should_fail ()] is [true] when this kernel run must raise; each
    [true] consumes one unit of the armed budget. Safe to call from any
    domain. *)
val should_fail : unit -> bool

(** [should_hang ()] is [true] when this kernel run must block; each
    [true] consumes one unit of the armed budget. Safe to call from any
    domain. *)
val should_hang : unit -> bool

(** [release_hangs ()] unwedges every hung run, current and future,
    until the next {!set}. Tests call it during teardown so abandoned
    zombie domains can run to completion instead of leaking a spinning
    core past the process's lifetime. *)
val release_hangs : unit -> unit

(** [hang_released ()] is polled by the hung run's wait loop. *)
val hang_released : unit -> bool

(** [net_drop ()] is [true] when the next transport operation must fail
    with a connection reset; each [true] consumes one unit of the armed
    budget. Safe to call from any domain. *)
val net_drop : unit -> bool

(** [net_delay ()] is [Some ms] when the next transport operation must
    stall for [ms] milliseconds; each [Some] consumes one unit of the
    armed budget. Safe to call from any domain. *)
val net_delay : unit -> int option
