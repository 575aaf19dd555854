(* The served system under test — one `dse serve` on a private Unix
   socket — driven by a closed loop of client domains, each sending its
   next submission only after the previous answer arrived. *)

type system = { proc : Procs.proc; addr : string }

let spawn ~dse ~dir ~tag ?wal () =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let argv =
    [ dse; "serve"; "--socket"; socket; "--workers"; "2" ]
    @ match wal with Some path -> [ "--wal"; path ] | None -> []
  in
  let proc =
    Procs.spawn ~label:("dse serve " ^ tag) ~log:(Filename.concat dir (tag ^ ".log"))
      ~sockets:[ socket ] (Array.of_list argv)
  in
  { proc; addr = socket }

(* Poll until the daemon answers a ping; false after [timeout] seconds.
   The poll is fine-grained because a daemon starts in ~10 ms. *)
let ready ?(timeout = 20.) system =
  let deadline = Spans.now () +. timeout in
  let rec go () =
    match Client.ping ~socket:system.addr with
    | Ok () -> true
    | Error _ when Spans.now () < deadline ->
      Unix.sleepf 0.0005;
      go ()
    | Error _ -> false
  in
  go ()

let stop system = Procs.stop system.proc

(* The daemon's peak resident set, in MiB. *)
let peak_rss_mb system =
  float_of_int (Option.value (Procs.peak_rss_kb system.proc.Procs.pid) ~default:0) /. 1024.

(* -- one submission -- *)

let check (input : Inputs.t) ~expect_hit = function
  | Ok (p : Protocol.result_payload) ->
    p.Protocol.cache_hit = expect_hit && p.Protocol.outcome = input.Inputs.expected
  | Error _ -> false

let submit ~addr (input : Inputs.t) =
  Client.submit ~socket:addr ~percents:Inputs.percents ~name:input.Inputs.name input.Inputs.trace

(* A daemon that never answers fails the request after [reply_timeout]
   seconds instead of holding the run. *)
let reply_timeout = 60.

let rec wait_readable fd =
  match Unix.select [ fd ] [] [] reply_timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd

(* The same round trip as [Client.submit], split at each client layer:
   connect, frame write, waiting for the daemon, frame read. *)
let submit_traced ~root ~addr (input : Inputs.t) =
  let req = Spans.fresh_req () in
  Spans.with_ ~req ~input:input.Inputs.index root (fun () ->
      match
        Spans.with_ "client.connect" (fun () ->
            Transport.connect ~timeout:10. (Transport.parse addr))
      with
      | Error _ as e -> e
      | Ok fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match
              Spans.with_ "client.write" (fun () ->
                  Protocol.write_request ~peer:addr fd (Replay.request_of input))
            with
            | Error _ as e -> e
            | Ok () -> (
              if not (Spans.with_ "client.wait" (fun () -> wait_readable fd)) then
                Error (Dse_error.Io_error { file = addr; message = "no reply" })
              else
              match Spans.with_ "client.read" (fun () -> Protocol.read_response ~peer:addr fd) with
              | Ok (Protocol.Result payload) -> Ok payload
              | Ok (Protocol.Server_error e) -> Error e
              | Ok _ -> Error (Dse_error.Io_error { file = addr; message = "unexpected response" })
              | Error _ as e -> e)))

(* -- the closed loop -- *)

type sample = { input : int; latency : float; ok : bool; traced : bool }

(* [closed_loop ~clients ~until ~traced_from ~draws one] runs [clients]
   domains; each takes the next input index from [draws] and calls
   [one ~traced input] until [until] or until [draws] runs out.
   Submissions started at or after [traced_from] are traced. Returns the
   samples and the time the last client finished. *)
let closed_loop ~clients ~until ~traced_from ~draws one =
  let next = Atomic.make 0 in
  let client () =
    let acc = ref [] in
    let rec go () =
      let start = Spans.now () in
      if start < until then begin
        let k = Atomic.fetch_and_add next 1 in
        if k < Array.length draws then begin
          let input = draws.(k) in
          let traced = start >= traced_from in
          let ok = one ~traced input in
          acc := { input; latency = Spans.now () -. start; ok; traced } :: !acc;
          go ()
        end
      end
    in
    go ();
    !acc
  in
  let helpers = List.init (clients - 1) (fun _ -> Domain.spawn client) in
  let mine = client () in
  let samples = mine @ List.concat_map Domain.join helpers in
  (samples, Spans.now ())

(* -- health counters -- *)

type counters = {
  hits : int;
  misses : int;
  jobs_completed : int;
  coalesced_hits : int;
  shed : int;
  cache_evictions : int;
  wal_appends : int;
  wal_failures : int;
}

let zero =
  { hits = 0; misses = 0; jobs_completed = 0; coalesced_hits = 0; shed = 0; cache_evictions = 0;
    wal_appends = 0; wal_failures = 0 }

let health_counters system =
  match Client.health ~socket:system.addr with
  | Error e -> failwith ("health of " ^ system.addr ^ ": " ^ Dse_error.to_string e)
  | Ok (h : Protocol.health) ->
    {
      hits = h.Protocol.cache_hits;
      misses = h.Protocol.cache_misses;
      jobs_completed = h.Protocol.jobs_completed;
      coalesced_hits = h.Protocol.coalesced_hits;
      shed = h.Protocol.shed;
      cache_evictions = h.Protocol.cache_evictions;
      wal_appends = h.Protocol.wal_appends;
      wal_failures = h.Protocol.wal_failures;
    }

let diff a b =
  {
    hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    jobs_completed = a.jobs_completed - b.jobs_completed;
    coalesced_hits = a.coalesced_hits - b.coalesced_hits;
    shed = a.shed - b.shed;
    cache_evictions = a.cache_evictions - b.cache_evictions;
    wal_appends = a.wal_appends - b.wal_appends;
    wal_failures = a.wal_failures - b.wal_failures;
  }

(* -- the probe of the live layers a workload's own loop does not split -- *)

(* [probe ~system ~budget inputs] sends each input (cycling, for at
   most [budget] seconds and three rounds) to the daemon, traced, plus
   a ping. The inputs must already be cached. Returns (attempted,
   failed). *)
let probe ~system ~budget (inputs : Inputs.t list) =
  let deadline = Spans.now () +. budget in
  let attempted = ref 0 and failed = ref 0 in
  let count ok =
    incr attempted;
    if not ok then incr failed
  in
  (try
     for _round = 1 to 3 do
       List.iter
         (fun (input : Inputs.t) ->
           if Spans.now () > deadline then raise Exit;
           count
             (check input ~expect_hit:true
                (submit_traced ~root:"probe.direct" ~addr:system.addr input));
           count (Spans.with_ "transport.ping" (fun () -> Client.ping ~socket:system.addr) = Ok ()))
         inputs
     done
   with Exit -> ());
  (!attempted, !failed)
