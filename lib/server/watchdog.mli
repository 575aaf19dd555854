(** Heartbeat watchdog over a {!Worker_pool}.

    A worker that stops reaching its cancellation poll points — an
    infinite loop in a pathological input, a deterministic kernel bug,
    an injected [DSE_FAULT=hang:K] — stops beating its heartbeat. The
    watchdog turns that silence into recovery: {!scan} finds every busy
    worker whose heartbeat is older than the hang timeout, replaces it
    (fresh domain, same slot; the wedged one is abandoned) and reports
    the stalled jobs so the server can answer their clients with
    {!Dse_error.Worker_stalled} and cancel the job's token (an abandoned
    worker that was merely slow aborts at its next poll instead of
    burning a core).

    The server runs {!scan} from the front's 0.1 s select tick, so
    detection latency is bounded by [hang_timeout] + one tick. *)

type 'job stalled = {
  slot : int;  (** The slot whose incarnation was replaced. *)
  job : 'job;  (** The job the wedged worker was running. *)
  elapsed : float;  (** Seconds since the worker picked the job up. *)
  silent_for : float;  (** Seconds since the last heartbeat — what tripped the timeout. *)
}

(** [scan pool ~hang_timeout] replaces every worker silent for more than
    [hang_timeout] seconds and returns what each was running. Workers
    that finished (or were already replaced) between observation and
    replacement are skipped — {!Worker_pool.replace} re-validates under
    the pool lock, so a healthy worker is never shot. Raises
    [Invalid_argument] when [hang_timeout <= 0]. *)
val scan : 'job Worker_pool.t -> hang_timeout:float -> 'job stalled list
