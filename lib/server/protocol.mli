(** The [dse serve] wire protocol.

    One {!Wire} frame per message over a Unix-domain socket or TCP (see
    {!Transport}), with magic ["DSRV"] and a tag byte naming the
    message:

    {v "DSRV" | version | tag | payload length (LEB128) | payload | CRC-32 (LE) v}

    One request frame per connection, answered by one response frame.
    Every framing or payload defect — bad magic, truncated varint,
    declared lengths exceeding the payload, CRC mismatch — surfaces as a
    typed {!Dse_error.Corrupt_binary} carrying the byte offset; OS-level
    failures as {!Dse_error.Io_error}. Nothing in this module raises
    across the API boundary, so one corrupt submission is a structured
    reply to that client, never a daemon crash.

    A frame is written from one buffer, the header in place in front of
    the payload ({!Wire.framed}); a Submit's buffer is sized from its
    trace. A frame's payload is read into a buffer sized from the
    declared length but never more than 32 times the bytes received
    (see {!Wire.sub}): a declared payload length is capped at
    {!max_payload} but never allocated far ahead of its bytes. Counts
    declared inside the payload are checked against the payload bytes
    that remain before anything is allocated for them.

    Every frame read and write loops on short counts — a TCP segment
    boundary (or a byte-at-a-time sender) can split a frame anywhere,
    and the decoder must not care. *)

(** The frame-header version byte. Client, daemon, and router ship
    together, so it is bumped in lockstep rather than negotiated; tests
    that hand-craft frames use it to stay in step. *)
val version : int

(** A design-space query against a submitted trace: either the paper's
    percentage sweep (Tables 7-30 layout) or one absolute miss budget. *)
type query = Percents of int list | Budget of int

(** How the daemon should analyse the submission: the exact arena
    kernel, or the one-pass approximate estimator. *)
type method_spec = Exact of Analytical.method_ | Approx

(** The decoded form of a submission's reference stream. The wire
    always carries records; what a decoder builds from them depends on
    its mode (see {!read_request}):
    - [Full]: a materialised {!Trace.t}, what clients send from; no
      decoder builds one;
    - [Records]: the record bytes as they arrived, checked and
      fingerprinted in one pass but not decoded — the daemon's form for
      an exact job, and the router's for every job, which it forwards
      verbatim ({!Trace_records.to_trace} materialises them);
    - [Sketched]: the daemon decodes an [Approx] submission's records
      straight into a streaming sketch, so the trace never materialises
      server-side. A [Sketched] value cannot be re-encoded
      ({!write_request} raises [Invalid_argument]) — it is a decode-only
      representation.

    [Full] and [Records] of the same trace encode to the same bytes. *)
type submission = Full of Trace.t | Sketched of Sketch.profile | Records of Trace_records.t

(** The fleet view as one versioned value: the full node list, the
    replication factor, and a monotonically increasing version. Version
    0 is reserved for the unfenced state (a standalone daemon booted
    with no peers); every published config is >= 1, and each membership
    change (join, leave, drain, replication change) bumps the version by
    one — "newer" is a plain integer comparison, and the version is the
    epoch fence carried by [Replicate] / [Cache_query]. *)
type ring_config = { ring_version : int; nodes : string list; replication : int }

type request =
  | Submit of {
      name : string;  (** display name for the rendered table *)
      trace : submission;
      query : query;
      method_ : method_spec;
      domains : int;
          (** kept on the wire (v7) for compatibility: the daemon
              refuses values < 1 and otherwise ignores it, since every
              exact job runs the one-pass stream *)
      max_level : int option;  (** as [Analytical.prepare]'s [?max_level] *)
      deadline : float option;
          (** seconds the job may spend, queue wait included; expiry is
              a {!Dse_error.Deadline_exceeded} reply *)
    }
  | Ping
  | Health  (** query the readiness plane (see {!health}) *)
  | Replicate of { ring_version : int; records : string list }
      (** push finished result entries to a ring successor. Each record
          is a WAL snapshot record ({!Wal.encode_record}) — opaque bytes
          at this layer, so replication and WAL persistence stay one
          format. [ring_version] is the sender's fleet-view epoch: when
          both sides are versioned (non-zero) and the numbers differ,
          the receiver rejects with {!Dse_error.Stale_ring} before
          storing anything — warm state must never be placed under a
          stale ring. Answered by [Replicate_ack]. *)
  | Cache_query of { ring_version : int; keys : Result_cache.key list }
      (** ask a peer about its result cache. An empty key list is the
          digest form ([Cache_reply] carries every exact cache key, no
          records); a non-empty list asks for those entries
          ([Cache_reply] carries the matching WAL-encoded records).
          Serves both the router's failover peer lookup (one key) and
          anti-entropy on rejoin (digest, then the missing keys).
          [ring_version] fences exactly like [Replicate]'s. *)
  | Ring_status  (** fetch the node's current {!ring_config} and drain flag *)
  | Ring_update of { config : ring_config }
      (** push a newer fleet view. Adopted only when strictly newer than
          the receiver's; adoption rebuilds the ring, schedules replica
          GC for keys the node no longer participates in, and (on a
          daemon with anti-entropy enabled) re-runs the digest exchange
          so a joining node's range is pulled while it already serves.
          Idempotent: an equal-or-older config changes nothing. Either
          way the reply is [Ring_reply] with the receiver's (possibly
          just-adopted) config. *)
  | Drain of { config : ring_config }
      (** planned decommission of the receiving daemon. [config] is the
          post-drain fleet view (the receiver absent). The daemon flips
          to shed-new-work mode, waits for in-flight jobs, pushes every
          warm entry it owns or replicates to the entry's post-drain
          owners, adopts [config], and only then acks with [Ring_reply]
          ([pushed] = records accepted by the new owners) — so a planned
          decommission costs zero kernel re-runs. *)

(** One worker slot's state as sampled at the health request. *)
type worker_health = {
  slot : int;
  busy : bool;
  job : string;  (** the display name of the running job; [""] when idle *)
  heartbeat_age : float;  (** seconds since the worker's last beat; [0.] when idle *)
  jobs_done : int;  (** jobs finished by this incarnation *)
}

(** Structured readiness for [dse submit --health]: the supervision
    plane's view of the daemon. [workers_replaced] counts watchdog
    replacements, [shed] heavy jobs refused past the queue watermark,
    [admission_rejected] submissions refused by the declared-size
    budgets, [wal_failures] append errors (persistence degraded, serving
    unaffected).

    [node_id] and [start_epoch] identify the process: the id is stable
    across restarts of the same configuration, while the epoch (the
    daemon's start time) changes on every respawn — a router that sees
    the same id with a newer epoch knows the backend was restarted
    (cold cache, stale breaker verdicts) rather than merely slow. *)
type health = {
  node_id : string;
  start_epoch : float;
  uptime : float;
  workers : worker_health list;
  workers_replaced : int;
  queue_depth : int;
  queue_watermark : int;
  max_pending : int;
  shed : int;
  admission_rejected : int;
  jobs_completed : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  cache_evictions : int;  (** LRU entries dropped by the bounded cache *)
  coalesced_hits : int;  (** submissions answered by attaching to another's flight *)
  wal_enabled : bool;
  wal_appends : int;
  wal_failures : int;
  peer_hits : int;
      (** cache entries served to peers via [Cache_query] (router
          failover relays and anti-entropy pulls) *)
  replicated_in : int;  (** entries received via [Replicate] or pulled by anti-entropy *)
  replicated_out : int;  (** entries successfully pushed to ring successors *)
  replication_lag : int;  (** entries waiting in the outbound replication queue *)
  replication_dropped : int;
      (** pushes dropped by the bounded replication queue (a slow peer
          degrades durability, never serving) *)
  ring_version : int;  (** the node's current fleet-view epoch; 0 = unfenced standalone *)
  draining : bool;  (** shed-new-work mode: a planned decommission is in progress or done *)
  replica_gc_dropped : int;
      (** entries dropped by replica GC after a ring change removed this
          node from their placement (post grace delay) *)
}

(** Approximate outcomes carry their error-bar floats as raw IEEE-754
    bits on the wire, so a cached re-query decodes bit-identically to
    the first answer. *)
type outcome =
  | Table of Analytical_dse.table
  | Optimal of Optimizer.t
  | Approx_table of Approx_dse.table
  | Approx_optimal of Approx_dse.optimal

type result_payload = { outcome : outcome; cache_hit : bool }

type response =
  | Result of result_payload
  | Server_error of Dse_error.t
  | Pong
  | Health_reply of health
  | Replicate_ack of { stored : int }
      (** how many pushed records were decoded and stored *)
  | Cache_reply of { keys : Result_cache.key list; records : string list }
      (** digest form: every exact cache key, [records = []]; fetch
          form: the WAL-encoded records found, [keys = []] *)
  | Ring_reply of { config : ring_config; draining : bool; pushed : int }
      (** the receiver's current fleet view, answering every membership
          verb. [pushed] is only meaningful for [Drain]: how many warm
          records the post-drain owners accepted. *)

(** [method_tag m] is the stable wire tag of the exact kernel (3 =
    arena) — also the cache-key component. Tags 0-2 (the boxed
    streaming, dfs and bcat kernels) are retired: a Submit carrying one
    decodes to a typed {!Dse_error.Constraint_violation}
    ("method retired; use arena"), not a framing error. *)
val method_tag : Analytical.method_ -> int

(** [method_spec_tag s] extends {!method_tag} with 4 = approx — the
    Submit method byte and the approx entries' cache-key component. *)
val method_spec_tag : method_spec -> int

(** The trace's content identity, however the submission was decoded —
    a sketched stream fingerprints identically to the materialised
    trace ({!Sketch.profile.fingerprint} = {!Trace.fingerprint}). *)
val submission_fingerprint : submission -> int64

(** Reference count of the submission ([Trace.length], or the sketch's
    stream length). *)
val submission_refs : submission -> int

(** Largest accepted frame payload, in bytes. *)
val max_payload : int

(** [write_request ?peer fd r] / [read_request ?peer fd]: one frame.
    [peer] labels errors (defaults: ["<server>"] when writing,
    ["<client>"] when reading). *)
val write_request : ?peer:string -> Unix.file_descr -> request -> (unit, Dse_error.t) result

(** A request encoded once, to be written to several peers (the
    router's hedged and failover forwards). *)
type frame

(** [frame r] encodes [r]; raises [Invalid_argument] on a [Sketched]
    submission. *)
val frame : request -> frame

(** [write_frame ?peer fd f] is {!write_request} of the encoded
    request. *)
val write_frame : ?peer:string -> Unix.file_descr -> frame -> (unit, Dse_error.t) result

(** [Ok None] means the peer closed the connection without sending a
    byte — a liveness probe (the socket-claim check, monitoring), not a
    defect; the daemon closes silently instead of logging or replying.
    Any bytes at all followed by a close is still [Corrupt_binary].

    [max_job_refs] / [memory_budget] (bytes) arm admission control: a
    [Submit] whose {e declared} reference count exceeds [max_job_refs],
    or whose {!Trace.estimate_bytes} exceeds [memory_budget], is
    rejected as [Error (Resource_exhausted _)] before the trace is
    decoded or allocated — the declared count is judged while it is
    still a varint. The estimate is priced per method (the method field
    precedes the trace on the wire): exact jobs use the [`Arena] model
    and approx jobs the [`Sketch] model, whose price is a fixed few MiB
    independent of the declared length. A retired method byte (0-2) is
    rejected with [Error (Constraint_violation _)] before admission, and
    so is the retired request tag 2 (server-stats; {!Health} carries
    every counter it did).

    A submission's records are kept as they arrived ([Records]):
    checked and fingerprinted in one pass, not decoded.
    [sketch_approx] (default false) selects the daemon's decode of an
    [Approx] submission: its record stream is fed straight into a
    streaming sketch and the request carries a [Sketched] profile — no
    trace is ever held, honouring the [`Sketch] admission price. *)
val read_request :
  ?peer:string ->
  ?max_job_refs:int ->
  ?memory_budget:int ->
  ?sketch_approx:bool ->
  Unix.file_descr ->
  (request option, Dse_error.t) result

val write_response : ?peer:string -> Unix.file_descr -> response -> (unit, Dse_error.t) result

val read_response : ?peer:string -> Unix.file_descr -> (response, Dse_error.t) result

(** [timed_out e] recognises the typed error produced when a socket
    receive/send timeout (SO_RCVTIMEO / SO_SNDTIMEO) expired mid-frame
    — the daemon logs and closes such connections without attempting a
    reply (which would itself block for the send timeout). *)
val timed_out : Dse_error.t -> bool

(** [answer_entry ~name ~query ~max_level entry] derives the response
    outcome for a query from a cached result entry — straight from the
    histograms for an exact entry, by re-running the deterministic
    estimator for an approx one. Whoever holds the entry (the computing
    daemon, a ring successor's replica, the router relaying a peer's
    copy) derives a bit-identical outcome, which is what makes
    replicated entries interchangeable with originals. *)
val answer_entry :
  name:string -> query:query -> max_level:int option -> Result_cache.entry -> outcome
