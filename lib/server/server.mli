(** The [dse serve] daemon.

    A long-running batch DSE service on a Unix-domain socket — and,
    with [tcp] set, a TCP listener beside it carrying the identical
    DSRV framing for multi-host fleets fronted by [dse route]. The
    shared {!Front} accepts connections and hands each to one of a few
    handler threads, which reads one {!Protocol.request}, answers cache
    hits, probes and malformed submissions itself, and hands cache
    misses to a pool of worker domains through a bounded {!Job_queue}:
    a client that trickles its frame holds one handler, never the
    daemon. Submissions
    beyond [max_pending] are rejected with a typed
    {!Dse_error.Queue_full} — explicit backpressure, never unbounded
    buffering. Each job runs the standard [Analytical] pipeline
    (the arena kernel by default, [Shard_exec] windows for
    [domains > 1]), so the per-shard
    recovery ladder of the error taxonomy applies per job; any job
    failure is a structured reply to that one client and the daemon
    keeps serving.

    Self-healing behaviours layered on top:

    - {b Deadlines.} A submission's [deadline] starts a {!Cancel} token
      at accept time (queue wait counts); the kernel polls it and
      expiry is a {!Dse_error.Deadline_exceeded} reply (exit 7 at the
      CLI) — the worker moves on to the next job immediately.
    - {b Single flight.} Concurrent identical submissions (same
      {!Result_cache.key}) coalesce onto one kernel run via
      {!Inflight}; duplicates are counted as [coalesced_hits].
    - {b Persistence.} With [wal_path] set, every cached result is
      appended to a crash-safe {!Wal}; on startup the log is replayed
      (tolerating torn tails and bit flips), so a [kill -9]'d daemon
      restarts warm and answers repeats from cache.
    - {b Bounded memory.} The result cache holds at most
      [cache_entries] entries (LRU eviction, counted in stats).

    Supervision behaviours (the watchdog plane):

    - {b Worker watchdog.} Every job runs under a {!Heartbeat.t} beaten
      at the kernel's cancellation poll points. The front's 0.1 s
      select tick scans the pool; a worker silent past [hang_timeout]
      is declared wedged: its domain is abandoned (OCaml domains cannot
      be killed), a replacement is spawned on the same slot, the flight
      is answered with {!Dse_error.Worker_stalled} (exit 8) and the
      job's token cancelled. A settled-flag CAS on each job guarantees
      exactly one party — finishing worker or watchdog — ever replies.
    - {b Admission control.} With [max_job_refs] / [memory_budget] set,
      a submission's {e declared} trace size is judged while it is
      still a varint on the wire ({!Trace.estimate_bytes}, priced per
      kernel family — arena jobs are charged their smaller off-heap
      footprint); oversized jobs get a typed
      {!Dse_error.Resource_exhausted} before any trace allocation.
    - {b Overload shedding.} Past the queue watermark (3/4 of
      [max_pending]), heavy submissions (at least one kernel shard,
      {!Arena_kernel.min_shard_refs} references) are refused with a
      load-proportional [retry_after] hint that client backoff honors;
      light jobs, pings, health probes and cache hits keep being
      answered.
    - {b Health plane.} A {!Protocol.Health} request is answered by
      its connection handler with per-worker heartbeat ages, queue depth
      and watermark, shed/admission counters, cache and WAL health, and
      uptime.

    Cluster durability (with [peers] set):

    - {b Replication on completion.} A finished exact result is pushed
      (as its WAL record — one format for disk and wire) to the first
      [replication − 1] non-self nodes of the key's ring walk, via a
      bounded queue drained by a dedicated domain: a slow or dead peer
      costs buffered records and then counted drops, never serving
      latency.
    - {b Peer serving.} {!Protocol.Cache_query} answers from the cache
      without kernel work — the router's failover lookup and peers'
      anti-entropy pulls ride it, counted as [peer_hits].
    - {b Anti-entropy on (re)join.} With [anti_entropy] set, startup
      exchanges cache-key digests with the ring neighbours and pulls
      exactly the keys this node participates in but does not hold — a
      WAL-less respawn re-warms its range from its peers, a
      WAL-restored one pulls nothing.

    Shutdown ({!stop}, or SIGTERM/SIGINT via
    {!install_signal_handlers}) drains: the listeners close, every
    connection already accepted is handled (its job queued), queued and
    in-flight jobs finish and are answered, the workers join, queued
    replication pushes drain, and the socket file is unlinked. *)

type config = {
  socket_path : string;
  tcp : string option;
      (** additional TCP listen address, ["host:port"] (empty host =
          all interfaces); [None] = Unix socket only *)
  node_id : string option;
      (** identity reported in health replies; defaults to the TCP
          address when serving one, else the socket path — stable
          across respawns, which is what lets a router tell a restart
          (same id, newer start epoch) from a distinct node *)
  workers : int;  (** worker domains; must be >= 1 *)
  max_pending : int;  (** job-queue depth bound; must be >= 1 *)
  cache_entries : int;  (** result-cache LRU bound; must be >= 1 *)
  wal_path : string option;  (** persistent result log; [None] = in-memory only *)
  hang_timeout : float;
      (** seconds of worker heartbeat silence before the watchdog
          replaces it; must be positive and finite *)
  max_job_refs : int option;
      (** admission bound on a submission's declared reference count *)
  memory_budget : int option;
      (** admission bound on a submission's estimated footprint, bytes *)
  peers : string list;
      (** the rest of the fleet, as dialable addresses spelled exactly
          as the router's backend list (and as each peer's node id) so
          every party derives the same ring; [[]] disables the cluster
          plane entirely. Must not include this node's own id. *)
  replication : int;
      (** total copies (computing node included) a finished result
          should have; must be >= 1, and 1 means "no pushes" *)
  replication_queue : int;
      (** outbound push-queue bound; overflow drops the push (counted
          as [replication_dropped]); must be >= 1 *)
  anti_entropy : bool;
      (** exchange digests with ring neighbours at startup and pull the
          missing entries of this node's key range *)
}

type t

(** [create ?on_job_start ?log config] binds and listens (unlinking a
    stale socket file; refusing one owned by a live server), ignores
    SIGPIPE, and — when [wal_path] is set — replays the WAL to warm the
    cache before the first connection is accepted. [on_job_start] is a
    test hook invoked by a worker as it picks a job up — tests block it
    to hold jobs in flight deterministically, and count it to assert
    single-flight coalescing. [log] receives operational messages
    (default: stderr). Errors are typed: [Constraint_violation] for bad
    config, [Io_error] for socket/WAL failures. *)
val create :
  ?on_job_start:(unit -> unit) -> ?log:(string -> unit) -> config -> (t, Dse_error.t) result

(** [run t] starts the workers and serves until {!stop}, then drains and
    cleans up. Runs in the calling domain (the connection handlers are
    threads on it); spawn a domain (or a process) around it to serve in
    the background. *)
val run : t -> unit

(** [stop t] requests shutdown-with-drain. Async-signal-safe (an atomic
    store); the front notices within its 100 ms select tick. *)
val stop : t -> unit

(** [install_signal_handlers t] routes SIGTERM and SIGINT to {!stop}. *)
val install_signal_handlers : t -> unit

(** [socket_path t] echoes the bound path. *)
val socket_path : t -> string
