(** The [dse route] gateway: fault-tolerant fingerprint routing across
    a fleet of [dse serve] backends.

    Submissions are consistent-hashed on {!Trace.fingerprint}
    ({!Ring}), so each trace's results concentrate on one backend's
    result cache and the fleet's caches compose instead of overlapping.
    Clients speak the ordinary protocol to the router ([dse submit
    --addr]); the router speaks it onward.

    The robustness plane:

    - {b Health polling.} The front's 0.1 s select tick (the accept
      loop {!Front} shares with the daemon) polls one backend per slice
      of [health_interval], refreshing node identity
      and feeding the breakers — so liveness is known before a client
      pays for the discovery.
    - {b Circuit breakers.} One {!Breaker} per backend: consecutive
      connect/timeout failures trip it open, that node's hash range
      reroutes to the next live ring candidate, and a half-open probe
      with exponential backoff readmits it. A health reply showing a
      new start epoch resets the breaker — a respawn owes nothing for
      its predecessor's failures (but its cache is presumed cold).
    - {b Hedged requests.} A submission silent past the hedge threshold
      ([Fixed] seconds, or [Adaptive]: 3x the rolling p99 of {e that
      backend's} forwarded latencies, clamped to [0.05, 10] s) is
      duplicated to the next live candidate; the first answer wins and
      the loser's connection is closed. Jobs are pure, so duplicate
      execution is safe. A respawn clears its backend's latency window
      along with the breaker — stale pre-crash samples must not size
      the new process's threshold.
    - {b Peer cache lookup.} Once a submission's ring walk has passed a
      dead or breaker-open node, each further candidate is first asked
      ({!Protocol.Cache_query}) whether it already holds the result —
      with replication enabled on the backends the dead owner's warm
      range lives on exactly these successors, and a hit is relayed
      with zero kernel work (counted as [peer_hits]).
    - {b Least-loaded spill.} With [spill_threshold] set, a submission
      whose owner's health-polled queue-depth/worker ratio exceeds the
      threshold is routed to the least-loaded live candidate instead
      (counted as [spilled]) — cache locality traded for latency under
      load, and replication pushes the result back to the owner's
      range regardless.
    - {b Typed exhaustion.} Only when every ring candidate has failed
      or stands breaker-open does the client see
      {!Dse_error.Backend_unavailable} (exit 9) — with one exception:
      if some backend answered [Queue_full], that retryable refusal is
      relayed instead, because a loaded fleet is not a dead one.

    Structured job errors (corrupt trace, deadline expiry, admission
    rejection, a stalled worker) are relayed verbatim: they are
    properties of the job and would reproduce on any node. [Ping] is
    answered locally; [Health] is forwarded to the first live backend in
    configuration order. *)

type hedge = Fixed of float  (** hedge after this many seconds *) | Adaptive

type config = {
  listen : string;  (** router address, {!Transport.parse} grammar *)
  backends : string list;  (** backend addresses; also their ring names *)
  replicas : int;  (** ring virtual nodes per backend *)
  forwarders : int;  (** connection handler threads = max concurrent requests *)
  max_pending : int;  (** accepted-connection queue bound *)
  connect_timeout : float;
  request_timeout : float;  (** per-attempt silence bound, seconds *)
  hedge : hedge;
  health_interval : float;  (** seconds between polls of one backend *)
  health_timeout : float;
  breaker : Breaker.config;
  spill_threshold : float option;
      (** spill a submission off its owner when the owner's last-polled
          queue-depth/worker ratio exceeds this; [None] disables *)
}

(** Empty listen/backends (caller must fill), 64 replicas,
    8 forwarders, 64 pending, 2 s connect, 120 s request, adaptive
    hedging, 1 s health interval, default breaker, no spill. *)
val default_config : config

type t

(** Per-backend state as sampled by {!snapshot}. *)
type backend_view = {
  backend : string;
  state : Breaker.state;
  id : string;  (** node id from its last health reply; [""] before one *)
  epoch : float;  (** its start epoch; [0.] before one *)
  seen : float;  (** time of the last successful health exchange *)
  queue : int;  (** queue depth from its last health reply *)
  workers : int;  (** worker count from its last health reply *)
  hedge_samples : int;
      (** latency samples in its hedge window (0 right after a respawn) *)
}

type stats = {
  forwarded : int;  (** client requests forwarded (not counting hedges) *)
  failovers : int;  (** attempts beyond the first for any request *)
  hedged : int;  (** hedge duplicates fired *)
  hedge_wins : int;  (** races won by the hedge *)
  rejected : int;  (** connections refused by the bounded queue *)
  unavailable : int;  (** requests that exhausted the whole ring *)
  peer_hits : int;  (** degraded-walk submissions answered from a peer's cache *)
  spilled : int;  (** submissions rerouted off a loaded owner *)
}

(** [create ?log config] binds the listen address and builds the ring;
    backends are not contacted yet (the health poll discovers them).
    Typed errors for bad config ([Constraint_violation]) and bind
    failures ([Io_error]). *)
val create : ?log:(string -> unit) -> config -> (t, Dse_error.t) result

(** [run t] serves until {!stop}, then drains queued connections. Runs
    in the calling domain. *)
val run : t -> unit

val stop : t -> unit

val install_signal_handlers : t -> unit

val stats : t -> stats

val snapshot : t -> backend_view list

(** The bound listen address (echoed from config). *)
val listen_address : t -> string
