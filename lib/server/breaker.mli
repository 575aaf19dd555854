(** Per-backend circuit breaker for the routing gateway.

    Tracks one backend's recent failures so the router stops paying
    connect timeouts for a node known to be down: [failure_threshold]
    consecutive failures trip the breaker open and the node's hash
    range reroutes to the next ring candidate; after an exponentially
    backed-off cooldown a single half-open probe decides between
    readmission and another (longer) open period.

    Thread-safe: the router's front tick (health polls) and all its
    connection handlers feed the same instance. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;  (** consecutive failures that trip Closed → Open *)
  cooldown_base : float;  (** first open period, seconds *)
  cooldown_cap : float;  (** backoff ceiling, seconds *)
}

(** threshold 3, cooldown 0.5 s doubling to a 10 s cap *)
val default_config : config

type t

(** Raises [Invalid_argument] on a non-positive threshold or cooldown,
    or a cap below the base. *)
val create : ?config:config -> unit -> t

(** [acquire t ~now] asks permission to send one request. [Closed]
    admits everyone; [Open] admits nobody until the cooldown elapses,
    when the first caller flips it [Half_open] and becomes the single
    probe; [Half_open] admits no one else until the probe settles. An
    admitted caller must report back via {!record_success} or
    {!record_failure}. *)
val acquire : t -> now:float -> bool

(** Any successful exchange: back to [Closed], counters cleared. *)
val record_success : t -> unit

(** A connect/timeout/transport failure at time [now]. In [Closed],
    counts toward the threshold; in [Half_open], re-opens with the
    cooldown doubled (up to the cap); in [Open], ignored (stragglers
    must not postpone the probe). *)
val record_failure : t -> now:float -> unit

(** Forgive everything — used when the backend's health reply shows a
    new start epoch (a respawn is a different process, not the one
    that failed). *)
val reset : t -> unit

val state : t -> state

(** The current open-period length (seconds), reflecting the backoff. *)
val cooldown : t -> float

val state_name : state -> string
