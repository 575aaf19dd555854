(** Typed error taxonomy for the DSE pipeline.

    The analytical kernel is exact — but exactness is only as
    trustworthy as the inputs and the engine. Every recoverable failure
    in trace ingestion and parallel exploration is classified here, so
    callers can react per class (and the [dse] CLI can map each class to
    a distinct process exit code) instead of pattern-matching on
    [Failure] strings. *)

type t =
  | Parse_error of { file : string; line : int; message : string }
      (** A malformed line in a text or Dinero trace file. *)
  | Corrupt_binary of { file : string; offset : int; message : string }
      (** Structural damage in a binary trace: bad magic, truncated or
          overlong varint, bad kind tag, length/CRC mismatch. [offset]
          is the byte position where the damage was detected. *)
  | Constraint_violation of { context : string; message : string }
      (** A caller-supplied parameter outside its domain (usage error). *)
  | Shard_failure of { shard : int; attempts : int; message : string }
      (** An exact kernel run failed: an injected [DSE_FAULT=fail] or
          an unexpected engine crash (internal-failure class). The
          fields keep their wire layout; a run is one attempt of
          shard 0. *)
  | Io_error of { file : string; message : string }
      (** The operating system refused an open/read/write. *)
  | Queue_full of { pending : int; max_pending : int; retry_after : float }
      (** The [dse serve] job queue is at its [--max-pending] depth — or
          past its shed watermark for heavy jobs — so the submission was
          rejected, not buffered. Retryable by design; [retry_after] is
          the server's hint (seconds) for when capacity should free up,
          and the client backoff never sleeps less than it. *)
  | Deadline_exceeded of { elapsed : float; limit : float }
      (** A job's cooperative-cancellation deadline expired: the kernel
          polled its [Cancel] token past the [limit] (seconds) and
          stopped after [elapsed] seconds. The worker is freed; whether
          a retry makes sense is the submitter's call. *)
  | Worker_stalled of { elapsed : float; job : string }
      (** The watchdog saw no heartbeat from the worker running [job]
          for [elapsed] seconds (past [--hang-timeout]): the worker
          stopped reaching its cancellation poll points. The wedged
          domain was abandoned and a replacement spawned; the job itself
          is lost and deliberately not retried (a deterministic hang
          would wedge the replacement too). *)
  | Resource_exhausted of { resource : string; needed : int; budget : int }
      (** Admission control rejected the job up front — its declared
          size exceeds [--max-job-refs] or its estimated footprint
          exceeds [--memory-budget] — before any trace allocation, so an
          oversized submission cannot OOM the daemon. Not retryable
          against the same server. *)
  | Backend_unavailable of { node : string; attempts : int }
      (** The [dse route] gateway exhausted failover: the ring node
          owning the job's fingerprint ([node]) and every fallback
          candidate were dead, wedged, or breaker-open across [attempts]
          forwarding attempts. Raised only after the whole ring was
          tried — a single backend death never surfaces this. Retryable
          once any backend returns. *)
  | Stale_ring of { seen : int; expected : int }
      (** A cluster-internal exchange ([Replicate], [Cache_query], or an
          anti-entropy digest) carried ring version [seen] while the
          receiver's membership is at version [expected]. The exchange
          was rejected {e before} any state was applied — a peer with an
          outdated fleet view must never place warm state under a stale
          ring. The sender's recovery is a config refetch
          ([Ring_status]) followed by a retry under the adopted
          version. *)

exception Error of t

(** [fail e] raises {!Error}. *)
val fail : t -> 'a

(** [to_string e] renders the error with its location context. *)
val to_string : t -> string

(** [exit_code e] maps the class to the [dse] CLI exit-code scheme:
    2 = usage ([Constraint_violation]), 3 = I/O ([Io_error]),
    4 = corrupt data ([Parse_error], [Corrupt_binary]),
    5 = internal ([Shard_failure]), 6 = server busy ([Queue_full]),
    7 = deadline expired ([Deadline_exceeded]), 8 = supervision
    ([Worker_stalled], [Resource_exhausted]), 9 = routing
    ([Backend_unavailable]), 10 = membership ([Stale_ring]). *)
val exit_code : t -> int

(** Hook invoked whenever a component degrades but carries on (a
    worker domain replaced after a crash). Defaults to printing on
    stderr; tests redirect it to capture or silence the log. *)
val on_degradation : (string -> unit) ref

(** [degraded msg] invokes {!on_degradation}. *)
val degraded : string -> unit
