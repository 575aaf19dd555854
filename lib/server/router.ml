(* The [dse route] gateway: a fingerprint-routed front for a fleet of
   [dse serve] backends.

   Every submission is consistent-hashed on its trace fingerprint
   (Ring) so repeats of the same trace land on the same backend's
   Result_cache — the fleet's aggregate cache behaves like one big
   cache instead of N overlapping cold ones. The robustness plane is
   the point of the module:

   - Connections are accepted and read by the shared Front (one accept
     loop, [forwarders] handler threads); its 0.1 s select tick polls
     one backend's health plane per slice of [health_interval], keeping
     node identity (id + start epoch) fresh and feeding the per-backend
     circuit breaker.
   - A Breaker per backend trips open on consecutive connect/timeout
     failures (forwarding or health), reroutes that node's hash range
     to the next live ring candidate, and readmits via a single
     half-open probe after an exponentially backed-off cooldown.
   - A request silent past the hedging threshold (a fixed --hedge-after
     or 3x the rolling p99 of forwarded latencies) fires a second
     attempt at the next live candidate; first answer wins and the
     loser's connection is closed — a slow-but-alive node degrades
     latency, never availability. Jobs are pure functions of the trace
     and query, so duplicated execution is always safe.
   - A respawned backend (same node id, newer start epoch in its health
     reply) gets its breaker reset AND its hedge latency window cleared:
     the restart is a different process and owes none of its
     predecessor's failures or latencies (stale pre-crash samples would
     poison the adaptive threshold for the first window_size post-respawn
     requests) — but its cache is presumed cold.
   - When the walk has already passed a dead or breaker-open node
     (degraded mode), each subsequent candidate is first asked for the
     submission's cached result (Cache_query on the key): with
     replication enabled on the backends, the dead node's warm range
     lives on its ring successors, and a hit is relayed with zero kernel
     work (counted as peer_hits).
   - With --spill-threshold set, a submission bound for an owner whose
     health-polled queue-depth/worker ratio exceeds the threshold is
     sent to the least-loaded live node instead (counted as spilled) —
     cache locality deliberately sacrificed under load.

   Only when the owner and every fallback candidate have been tried (or
   stand breaker-open) does a submission fail, with the typed
   Dse_error.Backend_unavailable carrying the owning node and the
   attempt count — exit 9 at the CLI. *)

type hedge = Fixed of float | Adaptive

type config = {
  listen : string;
  backends : string list;
  replicas : int;
  forwarders : int;
  max_pending : int;
  connect_timeout : float;
  request_timeout : float;
  hedge : hedge;
  health_interval : float;
  health_timeout : float;
  breaker : Breaker.config;
  spill_threshold : float option;
}

let default_config =
  {
    listen = "";
    backends = [];
    replicas = 64;
    forwarders = 8;
    max_pending = 64;
    connect_timeout = 2.;
    request_timeout = 120.;
    hedge = Adaptive;
    health_interval = 1.;
    health_timeout = 2.;
    breaker = Breaker.default_config;
    spill_threshold = None;
  }

(* The rolling latency window sizing the adaptive hedge threshold. *)
let window_size = 256

type backend = {
  name : string;  (* the address string: also the ring key *)
  breaker : Breaker.t;
  mu : Mutex.t;
  mutable node_id : string;
  mutable start_epoch : float;
  mutable last_seen : float;  (* last successful health exchange *)
  mutable last_state : Breaker.state;  (* for transition logging only *)
  (* load picture from the last health reply, for spill decisions *)
  mutable queue_depth : int;
  mutable worker_count : int;
  (* per-backend rolling latency window (guarded by [mu]): hedging
     judges each node against its own history, and a respawn clears
     exactly the dead process's samples *)
  latencies : float array;
  mutable lat_count : int;
}

type backend_view = {
  backend : string;
  state : Breaker.state;
  id : string;
  epoch : float;
  seen : float;
  queue : int;
  workers : int;
  hedge_samples : int;
}

type stats = {
  forwarded : int;
  failovers : int;
  hedged : int;
  hedge_wins : int;
  rejected : int;
  unavailable : int;
  peer_hits : int;
  spilled : int;
}

type t = {
  config : config;
  listen_addr : Transport.addr;
  listen_fd : Unix.file_descr;
  (* the routed fleet view, swapped wholesale under [ring_mu] when a
     strictly newer ring config is adopted (Ring_update at the gateway,
     or a Stale_ring refetch): retained backends keep their breaker
     state, identity and latency history; new ones start fresh. Readers
     take the lock only long enough to copy the references they need,
     so a request in flight keeps routing on the view it started with. *)
  ring_mu : Mutex.t;
  mutable backends : backend array;
  mutable by_name : (string, backend) Hashtbl.t;
  mutable ring : Ring.t;
  mutable ring_version : int;
  mutable replication : int;
  stopping : bool Atomic.t;
  forwarded : int Atomic.t;
  failovers : int Atomic.t;
  hedged : int Atomic.t;
  hedge_wins : int Atomic.t;
  rejected : int Atomic.t;
  unavailable : int Atomic.t;
  peer_hits : int Atomic.t;
  spilled : int Atomic.t;
  mutable next_poll : int;
  mutable last_poll : float;
  log : string -> unit;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let make_backend (config : config) name =
  {
    name;
    breaker = Breaker.create ~config:config.breaker ();
    mu = Mutex.create ();
    node_id = "";
    start_epoch = 0.;
    last_seen = 0.;
    last_state = Breaker.Closed;
    queue_depth = 0;
    worker_count = 1;
    latencies = Array.make window_size 0.;
    lat_count = 0;
  }

let create ?(log = fun msg -> Format.eprintf "dse-route: %s@." msg) (config : config) =
  let invalid message = Error (Dse_error.Constraint_violation { context = "route"; message }) in
  if config.backends = [] then invalid "at least one --backend is required"
  else if List.length (List.sort_uniq String.compare config.backends)
          <> List.length config.backends
  then invalid "duplicate --backend address"
  else if config.forwarders < 1 then invalid "forwarders must be >= 1"
  else if config.max_pending < 1 then invalid "max-pending must be >= 1"
  else if config.replicas < 1 then invalid "replicas must be >= 1"
  else if not (config.connect_timeout > 0.) then invalid "connect-timeout must be > 0"
  else if not (config.request_timeout > 0.) then invalid "request-timeout must be > 0"
  else if (match config.hedge with Fixed s -> not (s > 0.) | Adaptive -> false) then
    invalid "hedge-after must be > 0"
  else if not (config.health_interval > 0.) then invalid "health-interval must be > 0"
  else if not (config.health_timeout > 0.) then invalid "health-timeout must be > 0"
  else if (match config.spill_threshold with Some s -> not (s > 0.) | None -> false) then
    invalid "spill-threshold must be > 0"
  else
    match
      (try Ok (Breaker.create ~config:config.breaker ())
       with Invalid_argument m -> invalid m)
    with
    | Error _ as e -> e
    | Ok _ -> (
      let listen_addr = Transport.parse config.listen in
      match Transport.listen listen_addr with
      | Error _ as e -> e
      | Ok listen_fd ->
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
        let backends = Array.of_list (List.map (make_backend config) config.backends) in
        let by_name = Hashtbl.create (Array.length backends) in
        Array.iter (fun b -> Hashtbl.replace by_name b.name b) backends;
        Ok
          {
            config;
            listen_addr;
            listen_fd;
            ring_mu = Mutex.create ();
            backends;
            by_name;
            ring = Ring.create ~replicas:config.replicas config.backends;
            ring_version = 1;
            replication = 1;
            stopping = Atomic.make false;
            forwarded = Atomic.make 0;
            failovers = Atomic.make 0;
            hedged = Atomic.make 0;
            hedge_wins = Atomic.make 0;
            rejected = Atomic.make 0;
            unavailable = Atomic.make 0;
            peer_hits = Atomic.make 0;
            spilled = Atomic.make 0;
            next_poll = 0;
            last_poll = 0.;
            log;
          })

let stop t = Atomic.set t.stopping true

let install_signal_handlers t =
  let handler = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler

let stats t =
  {
    forwarded = Atomic.get t.forwarded;
    failovers = Atomic.get t.failovers;
    hedged = Atomic.get t.hedged;
    hedge_wins = Atomic.get t.hedge_wins;
    rejected = Atomic.get t.rejected;
    unavailable = Atomic.get t.unavailable;
    peer_hits = Atomic.get t.peer_hits;
    spilled = Atomic.get t.spilled;
  }

let snapshot t =
  let backends =
    Mutex.lock t.ring_mu;
    let b = t.backends in
    Mutex.unlock t.ring_mu;
    b
  in
  Array.to_list
    (Array.map
       (fun b ->
         Mutex.lock b.mu;
         let view =
           {
             backend = b.name;
             state = Breaker.state b.breaker;
             id = b.node_id;
             epoch = b.start_epoch;
             seen = b.last_seen;
             queue = b.queue_depth;
             workers = b.worker_count;
             hedge_samples = min b.lat_count window_size;
           }
         in
         Mutex.unlock b.mu;
         view)
       backends)

(* Log breaker transitions exactly once per edge; every path that feeds
   a breaker calls this afterwards. *)
let note_state t b =
  let s = Breaker.state b.breaker in
  Mutex.lock b.mu;
  let changed = s <> b.last_state in
  if changed then b.last_state <- s;
  Mutex.unlock b.mu;
  if changed then
    t.log (Printf.sprintf "breaker for %s is now %s" b.name (Breaker.state_name s))

let record_latency b dt =
  Mutex.lock b.mu;
  b.latencies.(b.lat_count mod window_size) <- dt;
  b.lat_count <- b.lat_count + 1;
  Mutex.unlock b.mu

(* 3x the backend's rolling p99, clamped to [0.05, 10] s; 1 s before
   any sample. Per-backend windows mean a chronically slow node is
   judged against itself (not hedged on every request because a fast
   sibling dominates the fleet window), and a respawn starts from the
   no-sample default instead of its predecessor's history. The
   multiplier means a healthy node hedges on well under 1% of requests
   — hedging is a tail-latency rescue, not a default path. *)
let hedge_threshold t b =
  match t.config.hedge with
  | Fixed s -> s
  | Adaptive ->
    Mutex.lock b.mu;
    let n = min b.lat_count window_size in
    let sample = Array.sub b.latencies 0 n in
    Mutex.unlock b.mu;
    if n = 0 then 1.
    else begin
      Array.sort compare sample;
      let p99 = sample.(min (n - 1) (n * 99 / 100)) in
      Float.min 10. (Float.max 0.05 (3. *. p99))
    end

let fail_breaker t b =
  Breaker.record_failure b.breaker ~now:(Unix.gettimeofday ());
  note_state t b

(* -- the mutable fleet view -- *)

let with_ring_lock t f =
  Mutex.lock t.ring_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ring_mu) f

let ring_version t = with_ring_lock t (fun () -> t.ring_version)

let current_config t =
  with_ring_lock t (fun () ->
      {
        Protocol.ring_version = t.ring_version;
        nodes = Array.to_list (Array.map (fun b -> b.name) t.backends);
        replication = t.replication;
      })

(* The submission's full failover walk, resolved to backend records in
   one critical section so the ring and the table are the same view. *)
let candidates_of t fingerprint =
  with_ring_lock t (fun () ->
      List.filter_map (fun name -> Hashtbl.find_opt t.by_name name) (Ring.successors t.ring fingerprint))

let all_backends t = with_ring_lock t (fun () -> Array.to_list t.backends)

(* Adopt a strictly newer fleet view. Backends present in both views
   keep their records (breaker verdicts, node identity, hedge window
   — the process didn't change, only the ring around it); joiners get
   fresh ones; leavers are dropped and simply stop being polled. *)
let adopt_if_newer t (config : Protocol.ring_config) =
  let valid =
    config.ring_version >= 1
    && config.nodes <> []
    && List.length (List.sort_uniq String.compare config.nodes) = List.length config.nodes
    && config.replication >= 1
  in
  valid
  && with_ring_lock t (fun () ->
         if config.ring_version <= t.ring_version then false
         else begin
           let old = t.by_name in
           let backends =
             Array.of_list
               (List.map
                  (fun name ->
                    match Hashtbl.find_opt old name with
                    | Some b -> b
                    | None -> make_backend t.config name)
                  config.nodes)
           in
           let by_name = Hashtbl.create (Array.length backends) in
           Array.iter (fun b -> Hashtbl.replace by_name b.name b) backends;
           t.backends <- backends;
           t.by_name <- by_name;
           t.ring <- Ring.create ~replicas:t.config.replicas config.nodes;
           t.ring_version <- config.ring_version;
           t.replication <- config.replication;
           true
         end)
  && begin
       t.log
         (Printf.sprintf "membership: adopted ring v%d (%d backend(s))" config.ring_version
            (List.length config.nodes));
       true
     end

(* A peer answered Stale_ring: it knows a newer fleet view than ours.
   Pull its config and adopt — the one recovery the fence prescribes. *)
(* A cheap exchange with one backend (health, ring status, a one-key
   peek): it rides the health timeout, not the request timeout. *)
let control_exchange t b request =
  Client.exchange ~connect_timeout:t.config.connect_timeout ~timeout:t.config.health_timeout
    b.name request

let refetch_config t b =
  match control_exchange t b Protocol.Ring_status with
  | Ok (Protocol.Ring_reply { config; _ }) -> ignore (adopt_if_newer t config)
  | Ok _ | Error _ -> ()

(* -- forwarding -- *)

type flight = { b : backend; fd : Unix.file_descr; started : float; is_hedge : bool }

(* What a submission would look like as a cache entry, precomputed at
   the gateway so a degraded ring walk can ask surviving candidates for
   the finished result before re-running the job. *)
type peek = {
  peek_key : Result_cache.key;
  peek_name : string;
  peek_query : Protocol.query;
  peek_max_level : int option;
}

(* Ask [b] whether it already holds the submission's result (replicated
   from the dead owner, or warmed by an earlier spill). A hit is
   relayed as a normal cache-hit Result — zero kernel work; any miss or
   transport trouble just means the walk proceeds to a real forward.
   The exchange is cheap (one key, no trace), so it rides the health
   timeout, not the request timeout. *)
let peer_lookup t b p =
  let exchange () =
    match
      control_exchange t b
        (Protocol.Cache_query { ring_version = ring_version t; keys = [ p.peek_key ] })
    with
    | Ok (Protocol.Cache_reply { records = [ record ]; _ }) -> `Hit record
    | Ok (Protocol.Server_error (Dse_error.Stale_ring _)) -> `Stale
    | Ok _ | Error _ -> `Miss
  in
  let fetched =
    match exchange () with
    | `Hit record -> Some record
    | `Miss -> None
    | `Stale -> (
      (* the peek itself told us our view is old: refresh it from the
         very node that knows better, then ask once more *)
      refetch_config t b;
      match exchange () with `Hit record -> Some record | `Miss | `Stale -> None)
  in
  match fetched with
  | None -> None
  | Some record -> (
    match Wal.decode_record record with
    | Some (key, entry) when key = p.peek_key -> (
      match
        Protocol.answer_entry ~name:p.peek_name ~query:p.peek_query
          ~max_level:p.peek_max_level entry
      with
      | outcome ->
        Atomic.incr t.peer_hits;
        t.log (Printf.sprintf "peer cache hit on %s; relaying without kernel work" b.name);
        Some (Protocol.Result { outcome; cache_hit = true })
      | exception _ -> None)
    | Some _ | None -> None)

(* Only the write half of the exchange: hedging waits on the reply
   itself. The request timeout rides the socket, so even a mid-frame
   stall is bounded. *)
let send_to t b request =
  Client.send ~connect_timeout:t.config.connect_timeout ~timeout:t.config.request_timeout b.name
    request

(* Read and classify one backend reply.

   [`Answered]: relayed verbatim — including structured job errors
   (corrupt trace, deadline, admission, a stalled worker): those are
   properties of the job, not the node, and would reproduce anywhere.
   [`Spill]: Queue_full — the node is alive but loaded, so the request
   may spill to the next candidate while the refusal is remembered as
   the fallback answer. [`Failed]: a transport-level failure (reset,
   timeout, damage) — feeds the breaker and triggers failover. *)
let settle_flight t fl =
  match Protocol.read_response ~peer:fl.b.name fl.fd with
  | Ok (Protocol.Server_error (Dse_error.Queue_full _ as e)) ->
    Breaker.record_success fl.b.breaker;
    note_state t fl.b;
    `Spill e
  | Ok response ->
    Breaker.record_success fl.b.breaker;
    note_state t fl.b;
    record_latency fl.b (Unix.gettimeofday () -. fl.started);
    `Answered response
  | Error e ->
    fail_breaker t fl.b;
    t.log (Printf.sprintf "reply from %s failed: %s" fl.b.name (Dse_error.to_string e));
    `Failed

let select_readable fds timeout =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Walk the candidate list (ring successor order), at most one hedged
   duplicate in flight at a time. [busy] remembers the best Queue_full
   refusal: if the whole ring is merely loaded (not dead) the client
   gets the retryable Queue_full, not Backend_unavailable. [degraded]
   flips once the walk has passed a dead or breaker-open node; from
   then on each candidate is first asked for the cached result
   ([peek]), because the failed node's warm range lives replicated on
   exactly these successors. *)
let rec try_next t ~hedging ~primary ~attempts ~busy ~peek ~degraded request candidates =
  match candidates with
  | [] -> (
    match !busy with
    | Some e -> Protocol.Server_error e
    | None ->
      Atomic.incr t.unavailable;
      Protocol.Server_error
        (Dse_error.Backend_unavailable { node = primary; attempts = !attempts }))
  | b :: rest -> (
    if not (Breaker.acquire b.breaker ~now:(Unix.gettimeofday ())) then begin
      degraded := true;
      try_next t ~hedging ~primary ~attempts ~busy ~peek ~degraded request rest
    end
    else
      match (if !degraded then Option.bind peek (peer_lookup t b) else None) with
      | Some response ->
        (* the Cache_query round-trip itself proved the node healthy *)
        Breaker.record_success b.breaker;
        note_state t b;
        response
      | None -> (
        incr attempts;
        if !attempts > 1 then Atomic.incr t.failovers;
        match send_to t b request with
        | Error e ->
          fail_breaker t b;
          degraded := true;
          t.log (Printf.sprintf "forward to %s failed: %s" b.name (Dse_error.to_string e));
          try_next t ~hedging ~primary ~attempts ~busy ~peek ~degraded request rest
        | Ok fd ->
          await_one t ~hedging ~primary ~attempts ~busy ~peek ~degraded request
            { b; fd; started = Unix.gettimeofday (); is_hedge = false }
            rest))

(* One flight outstanding. Silence past the hedge threshold fires the
   duplicate; silence past the request timeout is a node failure. *)
and await_one t ~hedging ~primary ~attempts ~busy ~peek ~degraded request fl rest =
  let deadline = fl.started +. t.config.request_timeout in
  let hedge_at = fl.started +. hedge_threshold t fl.b in
  let giveup () =
    fail_breaker t fl.b;
    close_noerr fl.fd;
    degraded := true;
    t.log (Printf.sprintf "%s silent for %.1f s; failing over" fl.b.name t.config.request_timeout);
    try_next t ~hedging ~primary ~attempts ~busy ~peek ~degraded request rest
  in
  let settle () =
    match settle_flight t fl with
    | `Answered response ->
      close_noerr fl.fd;
      response
    | `Spill e ->
      close_noerr fl.fd;
      busy := Some e;
      try_next t ~hedging ~primary ~attempts ~busy ~peek ~degraded request rest
    | `Failed ->
      close_noerr fl.fd;
      degraded := true;
      try_next t ~hedging ~primary ~attempts ~busy ~peek ~degraded request rest
  in
  let rec wait ~may_hedge =
    let now = Unix.gettimeofday () in
    if now >= deadline then giveup ()
    else begin
      let until = if may_hedge then Float.min deadline hedge_at else deadline in
      match select_readable [ fl.fd ] (Float.max 0. (until -. now)) with
      | _ :: _ -> settle ()
      | [] ->
        if may_hedge && Unix.gettimeofday () >= hedge_at then spawn_hedge rest
        else wait ~may_hedge
    end
  and spawn_hedge = function
    | [] -> wait ~may_hedge:false
    | b :: more -> (
      if not (Breaker.acquire b.breaker ~now:(Unix.gettimeofday ())) then spawn_hedge more
      else begin
        Atomic.incr t.hedged;
        incr attempts;
        t.log
          (Printf.sprintf "%s slow (past %.2f s); hedging to %s" fl.b.name
             (hedge_threshold t fl.b) b.name);
        match send_to t b request with
        | Error e ->
          fail_breaker t b;
          t.log (Printf.sprintf "hedge to %s failed: %s" b.name (Dse_error.to_string e));
          spawn_hedge more
        | Ok fd ->
          await_two t ~primary ~attempts ~busy ~peek ~degraded request fl
            { b; fd; started = Unix.gettimeofday (); is_hedge = true }
            more
      end)
  in
  wait ~may_hedge:(hedging && rest <> [])

(* Two flights racing: first answer wins, the loser's connection is
   closed unread (transport-level cancellation — the backend's reply
   hits EPIPE and is discarded; the job itself is pure, so the wasted
   kernel run costs time on that node and nothing else). The deadline
   is the primary's: the hedge gets whatever remains of it. *)
and await_two t ~primary ~attempts ~busy ~peek ~degraded request fl1 fl2 rest =
  let deadline = fl1.started +. t.config.request_timeout in
  let continue_with survivor =
    await_one t ~hedging:false ~primary ~attempts ~busy ~peek ~degraded request survivor rest
  in
  let rec wait () =
    let now = Unix.gettimeofday () in
    if now >= deadline then begin
      fail_breaker t fl1.b;
      fail_breaker t fl2.b;
      close_noerr fl1.fd;
      close_noerr fl2.fd;
      degraded := true;
      try_next t ~hedging:false ~primary ~attempts ~busy ~peek ~degraded request rest
    end
    else begin
      match select_readable [ fl1.fd; fl2.fd ] (deadline -. now) with
      | [] -> wait ()
      | ready :: _ -> (
        let winner, loser = if ready = fl1.fd then (fl1, fl2) else (fl2, fl1) in
        match settle_flight t winner with
        | `Answered response ->
          close_noerr winner.fd;
          close_noerr loser.fd;
          if winner.is_hedge then Atomic.incr t.hedge_wins;
          response
        | `Spill e ->
          close_noerr winner.fd;
          busy := Some e;
          continue_with loser
        | `Failed ->
          close_noerr winner.fd;
          degraded := true;
          continue_with loser)
    end
  in
  wait ()

let forward ?peek t ~hedging ~candidates request =
  match candidates with
  | [] -> assert false (* create and adopt_if_newer refuse empty node lists *)
  | first :: _ ->
    Atomic.incr t.forwarded;
    try_next t ~hedging ~primary:first.name ~attempts:(ref 0) ~busy:(ref None) ~peek
      ~degraded:(ref false) request candidates

(* Least-loaded spill: when the owner's last-polled queue-depth/worker
   ratio exceeds the threshold, promote the least-loaded live candidate
   to the front of the walk. Ring order is otherwise preserved, so the
   spilled job still warms a deterministic cache — and with replication
   on, the result is pushed back to the owner's range anyway. Load data
   is as fresh as the last health poll; a node never polled (or not
   breaker-Closed) is not a spill target. *)
let maybe_spill t candidates =
  match (t.config.spill_threshold, candidates) with
  | None, _ | _, [] -> candidates
  | Some threshold, owner :: _ -> (
    let load b = float_of_int b.queue_depth /. float_of_int (max 1 b.worker_count) in
    if Breaker.state owner.breaker <> Breaker.Closed || load owner <= threshold then candidates
    else
      let best =
        List.fold_left
          (fun acc b ->
            if b.last_seen <= 0. || Breaker.state b.breaker <> Breaker.Closed then acc
            else
              match acc with
              | Some best when load best <= load b -> acc
              | _ -> Some b)
          None candidates
      in
      match best with
      | Some b when b.name <> owner.name ->
        Atomic.incr t.spilled;
        t.log
          (Printf.sprintf "%s loaded (%.1f jobs/worker > %.1f); spilling to %s (%.1f)"
             owner.name (load owner) threshold b.name (load b));
        b :: List.filter (fun c -> c.name <> b.name) candidates
      | _ -> candidates)

let respond_and_close t fd response =
  (match Protocol.write_response fd response with
  | Ok () -> ()
  | Error e -> t.log (Printf.sprintf "reply failed: %s" (Dse_error.to_string e)));
  close_noerr fd

(* Runs on one of the front's handler threads: one client connection
   end to end. The
   router imposes no admission budgets of its own — the owning backend
   prices the job against its memory; what the router enforces is its
   bounded connection queue. *)
let handle_client t fd =
  match Protocol.read_request fd with
  | Ok None -> close_noerr fd (* liveness probe *)
  | Error e when Protocol.timed_out e ->
    t.log "dropped a connection that timed out mid-request";
    close_noerr fd
  | Error e -> respond_and_close t fd (Protocol.Server_error e)
  | Ok (Some Protocol.Ping) ->
    (* answered locally: a ping asks "is the gateway up" *)
    respond_and_close t fd Protocol.Pong
  | Ok (Some Protocol.Health) ->
    (* forwarded to the first live backend in configuration order — a
       single node's view, for fleet-wide numbers ask each backend *)
    respond_and_close t fd
      (forward t ~hedging:false ~candidates:(all_backends t) Protocol.Health)
  | Ok (Some Protocol.Ring_status) ->
    (* the gateway's own fleet view — the admin plane reads it to pick
       the freshest config, and pushes updates here last so a draining
       node keeps serving its cache until routing has moved *)
    respond_and_close t fd
      (Protocol.Ring_reply { config = current_config t; draining = false; pushed = 0 })
  | Ok (Some (Protocol.Ring_update { config })) ->
    ignore (adopt_if_newer t config);
    respond_and_close t fd
      (Protocol.Ring_reply { config = current_config t; draining = false; pushed = 0 })
  | Ok (Some (Protocol.Replicate _ | Protocol.Cache_query _ | Protocol.Drain _)) ->
    (* cluster-internal verbs: backends talk to each other directly
       (and a drain is addressed to one daemon); the gateway is for
       clients and fleet-view admin *)
    respond_and_close t fd
      (Protocol.Server_error
         (Dse_error.Constraint_violation
            { context = "route"; message = "cluster-internal verb not accepted at the gateway" }))
  | Ok (Some (Protocol.Submit { name; trace; query; method_; domains; max_level; _ } as request))
    ->
    let fingerprint = Protocol.submission_fingerprint trace in
    let candidates = maybe_spill t (candidates_of t fingerprint) in
    let peek =
      Some
        {
          peek_key =
            {
              Result_cache.fingerprint;
              method_tag = Protocol.method_spec_tag method_;
              domains;
              max_level = (match max_level with None -> -1 | Some l -> l);
            };
          peek_name = name;
          peek_query = query;
          peek_max_level = max_level;
        }
    in
    respond_and_close t fd (forward ?peek t ~hedging:true ~candidates request)

(* -- health polling, from the front's select tick -- *)

let probe_backend t b =
  match
    Client.exchange ~connect_timeout:t.config.health_timeout ~timeout:t.config.health_timeout
      b.name Protocol.Health
  with
  | Ok (Protocol.Health_reply h) ->
    let now = Unix.gettimeofday () in
    Mutex.lock b.mu;
    let respawned =
      b.start_epoch > 0.
      && (h.Protocol.start_epoch -. b.start_epoch > 1e-6 || h.Protocol.node_id <> b.node_id)
    in
    b.node_id <- h.Protocol.node_id;
    b.start_epoch <- h.Protocol.start_epoch;
    b.last_seen <- now;
    b.queue_depth <- h.Protocol.queue_depth;
    b.worker_count <- List.length h.Protocol.workers;
    (* a respawn is a different process: its predecessor's latency
       samples would mis-size the adaptive hedge threshold until the
       whole window refilled, so drop them with the breaker state *)
    if respawned then b.lat_count <- 0;
    Mutex.unlock b.mu;
    if respawned then begin
      t.log
        (Printf.sprintf
           "%s respawned (node %s, new epoch): breaker reset, hedge window cleared, cache \
            presumed cold"
           b.name h.Protocol.node_id);
      Breaker.reset b.breaker
    end;
    Breaker.record_success b.breaker;
    note_state t b
  | Ok _ | Error _ -> fail_breaker t b

(* One backend per slice so a poll's worst case (health_timeout on a
   dead node) stalls the accept loop briefly and rarely, instead of
   N timeouts back to back; every backend is still probed once per
   health_interval. *)
let poll_health t =
  let due =
    with_ring_lock t (fun () ->
        let n = Array.length t.backends in
        let now = Unix.gettimeofday () in
        if now -. t.last_poll >= t.config.health_interval /. float_of_int n then begin
          t.last_poll <- now;
          let b = t.backends.(t.next_poll mod n) in
          t.next_poll <- t.next_poll + 1;
          Some b
        end
        else None)
  in
  (* probe outside the lock: a health_timeout on a dead node must not
     hold up request routing *)
  match due with Some b -> probe_backend t b | None -> ()

let run t =
  (* the health poll rides the front's select tick, like the daemon's
     watchdog; the connection queue's refusal mirrors the daemon's
     shedding *)
  Front.run ~listeners:[ t.listen_fd ] ~handlers:t.config.forwarders
    ~max_pending:t.config.max_pending ~stopping:t.stopping
    ~tick:(fun () -> poll_health t)
    ~refused:(fun () -> Atomic.incr t.rejected)
    ~log:t.log (handle_client t);
  Transport.unlink t.listen_addr;
  t.log
    (Printf.sprintf
       "drained; %d request(s) forwarded, %d failover(s), %d hedged, %d peer hit(s), %d \
        spilled"
       (Atomic.get t.forwarded) (Atomic.get t.failovers) (Atomic.get t.hedged)
       (Atomic.get t.peer_hits) (Atomic.get t.spilled))

let listen_address t = Transport.to_string t.listen_addr
