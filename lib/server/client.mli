(** Client side of the [dse serve] protocol.

    One connection per request; every failure — refused socket, wire
    damage, or a structured error relayed by the daemon — comes back as
    a typed {!Dse_error.t}, so [dse submit] preserves the CLI exit-code
    scheme (a corrupt trace is exit 4 whether it was detected locally or
    by the daemon; a full queue is {!Dse_error.Queue_full}, exit 6).

    [socket] everywhere is an address string in {!Transport.parse}'s
    grammar: a Unix-socket path, or ["host:port"] for a TCP daemon or a
    [dse route] gateway — the wire protocol is identical. *)

(** [send ?connect_timeout ?timeout peer request] connects to the
    address [peer] (bounded by [connect_timeout], default 10 s), sets
    [timeout] (default: none) as the socket's send and receive timeout
    and writes [request], returning the socket to read and close. Every
    failure, a reset before the timeouts are set included, is a typed
    error labelled [peer]. *)
val send :
  ?connect_timeout:float ->
  ?timeout:float ->
  string ->
  Protocol.request ->
  (Unix.file_descr, Dse_error.t) result

(** {!send}, one {!Protocol.read_response}, close: the one bounded round
    trip behind every outbound call of the serving stack. *)
val exchange :
  ?connect_timeout:float ->
  ?timeout:float ->
  string ->
  Protocol.request ->
  (Protocol.response, Dse_error.t) result

(** [submit ~socket ?percents ?k ?max_level ?approx ?domains ?deadline
    ?retries ?retry_base ?retry_cap ~name trace] submits one job. [k]
    switches from the percentage sweep (default, the paper's
    5/10/15/20) to one absolute budget, mirroring [dse explore]'s
    [--percents]/[-k]. [deadline] bounds the job's server-side runtime
    (queue wait included); expiry comes back as
    {!Dse_error.Deadline_exceeded}.

    [retries] (default 0: fail fast) enables jittered exponential
    backoff for {e transient} failures only — {!Dse_error.Queue_full},
    {!Dse_error.Backend_unavailable} (a gateway whose ring is briefly
    all-dark, e.g. a rolling restart), and transport-level
    {!Dse_error.Io_error}, which covers the whole daemon-restart
    window: [ECONNREFUSED], a missing socket file, [ECONNRESET], a
    connection closed before the response, a read timeout. Attempt [i] sleeps
    [retry_base * 2^i * U(0.5, 1.5)] seconds, raised to the server's
    [retry_after] hint when a shedding daemon provided one; [retry_cap]
    (default 30) is a hard wall-clock bound across all attempts, after
    which the last typed error is returned. Structured job failures
    (constraint violations, corrupt traces, deadline expiry, stalled
    workers, admission rejections) are never retried.

    [approx] (default false) submits the job for approximate analysis:
    the daemon decodes the record stream straight into a one-pass
    sketch (the trace never materialises server-side, and admission
    prices it at the sketch's fixed footprint) and answers with
    {!Protocol.Approx_table} / {!Protocol.Approx_optimal} — estimates
    with error bars. Otherwise the job runs the exact arena kernel.

    The payload says whether the result came from the daemon's
    cache. *)
val submit :
  socket:string ->
  ?percents:int list ->
  ?k:int ->
  ?max_level:int ->
  ?approx:bool ->
  ?domains:int ->
  ?deadline:float ->
  ?retries:int ->
  ?retry_base:float ->
  ?retry_cap:float ->
  name:string ->
  Trace.t ->
  (Protocol.result_payload, Dse_error.t) result

(** [ping ~socket] checks liveness. *)
val ping : socket:string -> (unit, Dse_error.t) result

(** [health ~socket] fetches the daemon's structured readiness: per-
    worker state and heartbeat ages, queue depth against its shedding
    watermark, shed and admission-rejection counters, cache/WAL health
    and uptime ([dse submit --health]). *)
val health : socket:string -> (Protocol.health, Dse_error.t) result
