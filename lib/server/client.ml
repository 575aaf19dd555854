let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A bounded connect keeps a partitioned TCP peer from holding the
   caller for the kernel's SYN-retry minutes. *)
let send ?(connect_timeout = 10.) ?timeout peer request =
  match Transport.connect ~timeout:connect_timeout (Transport.parse peer) with
  | Error _ as e -> e
  | Ok fd -> (
    match
      Option.iter
        (fun seconds ->
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds;
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds)
        timeout;
      Protocol.write_request ~peer fd request
    with
    | Ok () -> Ok fd
    | Error e ->
      close_noerr fd;
      Error e
    | exception Unix.Unix_error (err, _, _) ->
      close_noerr fd;
      Error (Dse_error.Io_error { file = peer; message = Unix.error_message err }))

let exchange ?connect_timeout ?timeout peer request =
  match send ?connect_timeout ?timeout peer request with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect ~finally:(fun () -> close_noerr fd) (fun () -> Protocol.read_response ~peer fd)

(* Transient failures worth a retry: the daemon shedding load
   (Queue_full), a gateway with its whole ring briefly dark
   (Backend_unavailable — the typical cause is a rolling restart), and
   transport faults, which cover the entire daemon-restart window:
   ECONNREFUSED (socket bound, listener not yet accepting — or a stale
   file), ENOENT (socket file not yet recreated), ECONNRESET and a
   connection closed without a response (daemon killed mid-exchange),
   and read timeouts. All of these map to Io_error by Protocol/Transport,
   so a client with [--retries] rides out a supervised respawn instead
   of failing fast. Structured job outcomes — constraint violations,
   corrupt traces, deadline expiry, a stalled worker, an admission
   rejection — would fail identically on a resubmit, so they surface
   immediately. *)
let retryable = function
  | Dse_error.Queue_full _ | Dse_error.Io_error _ | Dse_error.Backend_unavailable _ -> true
  | _ -> false

(* Full jitter on an exponential base: delay in [0.5, 1.5) * base * 2^attempt,
   so a burst of failing clients decorrelates instead of re-stampeding
   the daemon in lockstep. *)
let backoff_delay ~base attempt =
  base *. (2. ** float_of_int attempt) *. (0.5 +. Random.float 1.)

(* A shedding daemon knows its own drain rate better than our blind
   exponential does: never sleep less than its hint. *)
let server_hint = function
  | Dse_error.Queue_full { retry_after; _ } when retry_after > 0. -> retry_after
  | _ -> 0.

let with_retry ~retries ~retry_base ~retry_cap f =
  if retries = 0 then f ()
  else begin
    let started = Unix.gettimeofday () in
    let rec go attempt =
      match f () with
      | Ok _ as ok -> ok
      | Error e when attempt < retries && retryable e ->
        let delay = Float.max (backoff_delay ~base:retry_base attempt) (server_hint e) in
        (* the cap is a hard wall-clock bound: give up with the last
           typed error rather than sleep past it *)
        if Unix.gettimeofday () -. started +. delay > retry_cap then Error e
        else begin
          Unix.sleepf delay;
          go (attempt + 1)
        end
      | Error _ as e -> e
    in
    go 0
  end

(* One round trip whose reply [expect] picks out: a structured error is
   passed through, any other kind of reply is a typed [Io_error]. *)
let call ~socket request expect =
  match exchange socket request with
  | Error _ as e -> e
  | Ok (Protocol.Server_error e) -> Error e
  | Ok reply -> (
    match expect reply with
    | Some v -> Ok v
    | None ->
      Error
        (Dse_error.Io_error
           { file = socket; message = "unexpected response kind from the server" }))

let submit ~socket ?(percents = [ 5; 10; 15; 20 ]) ?k ?max_level ?(approx = false) ?(domains = 1)
    ?deadline ?(retries = 0) ?(retry_base = 0.1) ?(retry_cap = 30.) ~name trace =
  if retries < 0 then invalid_arg "Client.submit: retries must be >= 0";
  if not (retry_base > 0.) then invalid_arg "Client.submit: retry_base must be > 0";
  if not (retry_cap > 0.) then invalid_arg "Client.submit: retry_cap must be > 0";
  let query =
    match k with Some k -> Protocol.Budget k | None -> Protocol.Percents percents
  in
  let method_ = if approx then Protocol.Approx else Protocol.Exact Analytical.Arena in
  with_retry ~retries ~retry_base ~retry_cap (fun () ->
      call ~socket
        (Protocol.Submit
           { name; trace = Protocol.Full trace; query; method_; domains; max_level; deadline })
        (function Protocol.Result payload -> Some payload | _ -> None))

let ping ~socket = call ~socket Protocol.Ping (function Protocol.Pong -> Some () | _ -> None)

let health ~socket =
  call ~socket Protocol.Health (function Protocol.Health_reply h -> Some h | _ -> None)
