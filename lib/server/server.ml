type config = {
  socket_path : string;
  tcp : string option;
  node_id : string option;
  workers : int;
  max_pending : int;
  cache_entries : int;
  wal_path : string option;
  hang_timeout : float;
  max_job_refs : int option;
  memory_budget : int option;
  peers : string list;
  replication : int;
  replication_queue : int;
  anti_entropy : bool;
}

(* What the worker actually runs: an exact kernel over a materialised
   trace, or the approximate estimator over a profile the protocol
   layer already sketched during decode (no trace ever existed). *)
type work =
  | Exact_work of Trace.t
  | Approx_work of Sketch.profile

(* The node's current fleet view — one value, swapped whole under
   [ring_mu] so readers (workers replicating, handlers fencing,
   the repl domain pushing) always see a consistent (version, nodes,
   replication, ring) quadruple. [version] 0 is the unfenced standalone
   state; a published config is >= 1 and only ever replaced by a
   strictly newer one. [nodes] may exclude this node after a drain or
   leave — then [ring] still places keys (to forward late results to
   the survivors) but this node participates in none of them. *)
type membership = {
  version : int;
  nodes : string list;
  replication : int;
  ring : Ring.t option;
}

type job = {
  fd : Unix.file_descr;
  name : string;
  work : work;
  query : Protocol.query;
  domains : int;
  max_level : int option;
  key : Result_cache.key;
  cancel : Cancel.t;
  (* Exactly one party replies to this flight: the worker that finishes
     the job, or the watchdog that declares it stalled. Whoever wins
     this CAS owns [fd] (and the flight's waiters); the loser — e.g. an
     abandoned worker that unwedges hours later, when the fd number may
     already belong to a different connection — discards silently. *)
  settled : bool Atomic.t;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  tcp_fd : Unix.file_descr option;
  node_id : string;
  queue : job Job_queue.t;
  cache : Result_cache.t;
  inflight : Inflight.t;
  wal : Wal.t option;
  (* this node's fleet view (itself + peers at boot, updated at runtime
     by Ring_update/Drain), agreeing with the router's ring as long as
     both spell node names the same way *)
  ring_mu : Mutex.t;
  mutable membership : membership;
  (* replica-GC batches scheduled by a membership change: keys this
     node stopped participating in, dropped once their grace delay
     expires (guarded by [ring_mu]) *)
  mutable gc_pending : (float * Result_cache.key list) list;
  (* shed-new-work mode: a planned decommission is in progress *)
  draining : bool Atomic.t;
  (* outbound (target node, encoded record) pushes; bounded, so a slow
     peer costs at most [replication_queue] buffered records and then
     durability (drops are counted), never serving *)
  repl_queue : (string * string) Job_queue.t;
  stopping : bool Atomic.t;
  jobs_completed : int Atomic.t;
  shed : int Atomic.t;
  admission_rejected : int Atomic.t;
  wal_appends : int Atomic.t;
  wal_failures : int Atomic.t;
  peer_hits : int Atomic.t;
  replicated_in : int Atomic.t;
  replicated_out : int Atomic.t;
  replication_dropped : int Atomic.t;
  replica_gc_dropped : int Atomic.t;
  started : float;
  mutable pool : job Worker_pool.t option;
  on_job_start : unit -> unit;
  log : string -> unit;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Shedding starts at 3/4 of the queue bound (rounded up): the last
   quarter of the queue is reserved for light jobs, pings and cache
   probes, so an overload of heavy submissions degrades the heavy tier
   first while the cheap tier keeps answering. *)
let watermark config = max 1 (((3 * config.max_pending) + 3) / 4)

(* A job at or above one shard of kernel work is "heavy" for shedding
   purposes: it is the class whose kernel time dominates queue drain
   time under overload. *)
let heavy_refs = Arena_kernel.min_shard_refs

(* How long until a worker likely frees up: queue depth spread over the
   pool, at an assumed quarter-second per heavy job — deliberately
   rough, it only has to make client backoff proportional to load. *)
let retry_hint config ~pending =
  Float.min 10. (0.25 *. (float_of_int (pending + config.workers) /. float_of_int config.workers))

(* Warm the cache from the WAL in append order (later duplicates win
   and recency is reproduced); damage is tolerated by design and only
   logged. *)
let restore_from_wal ~log ~cache path =
  match Wal.replay path with
  | Error _ as e -> e
  | Ok { Wal.entries; intact; damaged; truncated } ->
    List.iter (fun (key, entry) -> Result_cache.store cache key entry) entries;
    if intact > 0 || damaged > 0 || truncated then
      log
        (Printf.sprintf "wal: restored %d cached result(s) from %s%s%s" intact path
           (if damaged > 0 then Printf.sprintf ", skipped %d damaged record(s)" damaged else "")
           (if truncated then ", dropped a torn tail" else ""));
    Ok ()

let create ?(on_job_start = fun () -> ()) ?(log = fun msg -> Format.eprintf "dse-serve: %s@." msg)
    (config : config) =
  let ( let* ) = Result.bind in
  let invalid message =
    Error (Dse_error.Constraint_violation { context = "serve"; message })
  in
  (* The id must survive a respawn (that is its point: the router pairs
     a stable id with a changing start epoch), so it defaults to the
     daemon's address — TCP when serving a fleet, else the socket path. *)
  let node_id =
    match config.node_id with
    | Some id -> id
    | None -> Option.value config.tcp ~default:config.socket_path
  in
  let* () =
    if config.workers < 1 then invalid "workers must be >= 1"
    else if config.max_pending < 1 then invalid "max-pending must be >= 1"
    else if config.cache_entries < 1 then invalid "cache-entries must be >= 1"
    else if not (config.hang_timeout > 0. && config.hang_timeout < infinity) then
      invalid "hang-timeout must be a positive finite number of seconds"
    else if (match config.max_job_refs with Some n -> n < 1 | None -> false) then
      invalid "max-job-refs must be >= 1"
    else if (match config.memory_budget with Some n -> n < 1 | None -> false) then
      invalid "memory-budget must be >= 1"
    else if config.replication < 1 then invalid "replication must be >= 1"
    else if config.replication_queue < 1 then invalid "replication-queue must be >= 1"
    else if
      List.length (List.sort_uniq String.compare config.peers) <> List.length config.peers
    then invalid "duplicate peer address"
    else if List.mem node_id config.peers then
      invalid (Printf.sprintf "peer list includes this node's own id %S" node_id)
    else Ok ()
  in
  (* The TCP address is validated before any socket is bound: "--tcp"
     must actually be host:port, not a path that fell through parse. *)
  let* tcp_addr =
    match Option.map Transport.parse config.tcp with
    | None -> Ok None
    | Some (Transport.Tcp _ as addr) -> Ok (Some addr)
    | Some (Transport.Unix_socket s) ->
      invalid (Printf.sprintf "--tcp expects host:port, got %S" s)
  in
  let* listen_fd = Transport.listen (Transport.Unix_socket config.socket_path) in
  let release_listeners tcp_fd =
    close_noerr listen_fd;
    Option.iter close_noerr tcp_fd;
    Transport.unlink (Transport.Unix_socket config.socket_path)
  in
  let* tcp_fd =
    match Option.map Transport.listen tcp_addr with
    | None -> Ok None
    | Some (Ok fd) -> Ok (Some fd)
    | Some (Error _ as e) ->
      release_listeners None;
      e
  in
  let cache = Result_cache.create ~capacity:config.cache_entries () in
  let* wal =
    match config.wal_path with
    | None -> Ok None
    | Some path -> (
      match
        let* () = restore_from_wal ~log ~cache path in
        Wal.open_ ~capacity:config.cache_entries
          ~snapshot:(fun () -> Result_cache.snapshot cache)
          path
      with
      | Ok wal -> Ok (Some wal)
      | Error _ as e ->
        release_listeners tcp_fd;
        e)
  in
  (* a client vanishing mid-reply must be an EPIPE result, not a
     process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Replica placement needs a fleet view: the ring over self + peers.
     The peer strings must be dialable addresses AND spelled exactly as
     the router spells its --backend list, or the two rings disagree on
     successors — which is why node_id defaults to the daemon's
     address. *)
  let membership =
    match config.peers with
    | [] ->
      (* standalone: version 0 = unfenced, until a Ring_update joins
         this node to a fleet *)
      { version = 0; nodes = [ node_id ]; replication = config.replication; ring = None }
    | peers ->
      { version = 1; nodes = node_id :: peers; replication = config.replication;
        ring = Some (Ring.create (node_id :: peers)) }
  in
  Ok
    {
      config;
      listen_fd;
      tcp_fd;
      node_id;
      queue = Job_queue.create ~max_pending:config.max_pending;
      cache;
      inflight = Inflight.create ();
      wal;
      ring_mu = Mutex.create ();
      membership;
      gc_pending = [];
      draining = Atomic.make false;
      (* always created — a standalone daemon joined at runtime starts
         replicating without a restart; an idle queue costs one blocked
         domain *)
      repl_queue = Job_queue.create ~max_pending:config.replication_queue;
      stopping = Atomic.make false;
      jobs_completed = Atomic.make 0;
      shed = Atomic.make 0;
      admission_rejected = Atomic.make 0;
      wal_appends = Atomic.make 0;
      wal_failures = Atomic.make 0;
      peer_hits = Atomic.make 0;
      replicated_in = Atomic.make 0;
      replicated_out = Atomic.make 0;
      replication_dropped = Atomic.make 0;
      replica_gc_dropped = Atomic.make 0;
      started = Unix.gettimeofday ();
      pool = None;
      on_job_start;
      log;
    }

let stop t = Atomic.set t.stopping true

let install_signal_handlers t =
  let handler = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler

(* The entry→outcome derivation lives in Protocol (answer_entry) so the
   router can build the same reply from a peer's replicated record. *)
let answer = Protocol.answer_entry

(* -- membership -- *)

let with_ring t f =
  Mutex.lock t.ring_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ring_mu) f

let membership t = with_ring t (fun () -> t.membership)

let ring_version t = (membership t).version

let current_config t =
  let m = membership t in
  { Protocol.ring_version = m.version; nodes = m.nodes; replication = m.replication }

(* The epoch fence on Replicate/Cache_query: both sides versioned and
   the numbers differ means one of us has a stale fleet view — reject
   before any state is applied. Version 0 on either side bypasses the
   fence (a standalone daemon, or a client probing without a view). *)
let fence t seen =
  let mine = ring_version t in
  if mine <> 0 && seen <> 0 && seen <> mine then
    Some (Dse_error.Stale_ring { seen; expected = mine })
  else None

(* [node] participates in a key iff it is among the first [r] distinct
   nodes of the key's ring walk — the replica set all placement logic
   (replication push, anti-entropy pull, replica GC) agrees on. *)
let placed ~r ~node ring fingerprint =
  let rec go i = function
    | [] -> false
    | n :: rest -> (i < r && n = node) || (i + 1 < r && go (i + 1) rest)
  in
  go 0 (Ring.successors ring fingerprint)

let validate_config (config : Protocol.ring_config) =
  if config.Protocol.ring_version < 1 then Error "ring version must be >= 1"
  else if config.Protocol.nodes = [] then Error "empty node list"
  else if
    List.length (List.sort_uniq String.compare config.Protocol.nodes)
    <> List.length config.Protocol.nodes
  then Error "duplicate node address"
  else if config.Protocol.replication < 1 then Error "replication must be >= 1"
  else Ok ()

(* Keys dropped by replica GC linger this long after the membership
   change that orphaned them: long enough for the control plane to
   finish propagating the new config (so a node keeps answering its old
   range while routing catches up), short enough that a shrink reclaims
   memory promptly. *)
let gc_grace = 1.0

(* -- replication -- *)

(* Store a record that arrived from a peer (a Replicate push or an
   anti-entropy pull). It takes the same path as a locally computed
   result — cache store + WAL append — so a replica is durable here
   too, and a later restart of this node warms it from its own WAL. *)
let store_replica t key entry =
  Result_cache.store t.cache key entry;
  Atomic.incr t.replicated_in;
  match t.wal with
  | None -> ()
  | Some wal -> (
    match Wal.append wal key entry with
    | Ok () -> Atomic.incr t.wal_appends
    | Error e ->
      Atomic.incr t.wal_failures;
      t.log (Printf.sprintf "wal append failed: %s" (Dse_error.to_string e)))

(* Where a key's copies go under the current membership: its first R−1
   ring successors other than this node. *)
let push_targets t (key : Result_cache.key) =
  let m = membership t in
  match m.ring with
  | Some ring when m.replication > 1 ->
    Ring.successors ring key.Result_cache.fingerprint
    |> List.filter (fun node -> node <> t.node_id)
    |> List.filteri (fun i _ -> i < m.replication - 1)
  | _ -> []

(* Fire-and-forget: a finished entry is queued for this node's R−1
   distinct ring successors *for the key* — so a spilled or failed-over
   job's result still lands on the nodes any router will walk for that
   fingerprint, the owner included. A full queue drops the push and
   counts it: a slow peer degrades durability, never serving. *)
let replicate t key entry =
  match push_targets t key with
  | [] -> ()
  | targets -> (
    match Wal.encode_record key entry with
    | None -> () (* approx entries are not replicated, mirroring the WAL *)
    | Some record ->
      List.iter
        (fun target ->
          match Job_queue.push t.repl_queue (target, record) with
          | `Ok -> ()
          | `Full _ -> Atomic.incr t.replication_dropped
          | `Closed -> ())
        targets)

(* One request/response exchange with a peer daemon. Bounded
   everywhere (connect, send, receive): a wedged peer must not wedge the
   pusher. *)
let peer_exchange ?(timeout = 10.0) target request =
  Client.exchange ~connect_timeout:2.0 ~timeout target request

(* Wake the repl domain for a fresh digest exchange. The sentinel rides
   the push queue (the empty target is not a dialable address, so it
   cannot collide with a real push); a full queue just means the domain
   is already busy syncing — the entries it pushes serve the same
   convergence end. *)
let trigger_anti_entropy t =
  if t.config.anti_entropy then
    match Job_queue.push t.repl_queue ("", "") with `Ok | `Full _ | `Closed -> ()

(* Swap in a strictly newer fleet view (caller holds [ring_mu] via
   adopt_if_newer). Every exact key this node stops participating in is
   scheduled for replica GC after the grace delay — re-checked against
   the then-current membership when it fires, so a config that restores
   a key cancels its doom. *)
let adopt_locked t (config : Protocol.ring_config) =
  let ring = Ring.create config.Protocol.nodes in
  let replication = config.Protocol.replication in
  let doomed =
    List.filter
      (fun (key : Result_cache.key) ->
        not (placed ~r:replication ~node:t.node_id ring key.Result_cache.fingerprint))
      (Result_cache.exact_keys t.cache)
  in
  t.membership <-
    { version = config.Protocol.ring_version; nodes = config.Protocol.nodes; replication;
      ring = Some ring };
  if doomed <> [] then
    t.gc_pending <- t.gc_pending @ [ (Unix.gettimeofday () +. gc_grace, doomed) ]

(* [true] iff the config was strictly newer (and valid) and was
   adopted. Idempotent against replays of the current or an older
   config. *)
let adopt_if_newer t (config : Protocol.ring_config) =
  match validate_config config with
  | Error _ -> false
  | Ok () ->
    let adopted =
      with_ring t (fun () ->
          if config.Protocol.ring_version > t.membership.version then begin
            adopt_locked t config;
            true
          end
          else false)
    in
    if adopted then begin
      t.log
        (Printf.sprintf "membership: adopted ring v%d (%d node(s), replication %d)%s"
           config.Protocol.ring_version
           (List.length config.Protocol.nodes)
           config.Protocol.replication
           (if List.mem t.node_id config.Protocol.nodes then "" else "; this node is out"));
      trigger_anti_entropy t
    end;
    adopted

(* The Stale_ring recovery path: ask the peer that fenced us for its
   view and adopt it if newer. Returns whether anything was adopted. *)
let refetch_config t peer =
  match peer_exchange peer Protocol.Ring_status with
  | Ok (Protocol.Ring_reply { config; _ }) -> adopt_if_newer t config
  | Ok _ | Error _ -> false

let current_targets t record =
  match Wal.decode_record record with None -> [] | Some (key, _) -> push_targets t key

let rec push_record ?(refetched = false) t target record =
  if not (List.mem target (current_targets t record)) then
    (* The queue item was placed under an older ring. Sending it anyway
       would carry the *current* version, so the receiver's fence would
       wave a stale placement through — re-warming a node that just
       drained out of the key's range. Re-place instead: push to the
       key's owners under the ring of this moment (idempotent on a
       receiver that already holds the entry), or drop the push when
       this node no longer owes a copy at all. *)
    List.iter
      (fun target -> push_record ~refetched t target record)
      (current_targets t record)
  else
    match
      peer_exchange target
        (Protocol.Replicate { ring_version = ring_version t; records = [ record ] })
    with
    | Ok (Protocol.Replicate_ack { stored }) when stored >= 1 -> Atomic.incr t.replicated_out
    | Ok (Protocol.Server_error (Dse_error.Stale_ring _)) when not refetched ->
      (* the peer fenced us: refetch its view and, if we adopted a newer
         one, re-place the record under it (its owners may have moved) *)
      if refetch_config t target then
        List.iter
          (fun target -> push_record ~refetched:true t target record)
          (current_targets t record)
      else
        t.log
          (Printf.sprintf "replication: peer %s fenced a push and no newer config was found"
             target)
    | Ok _ -> t.log (Printf.sprintf "replication: peer %s refused a record" target)
    | Error e ->
      t.log (Printf.sprintf "replication: push to %s failed: %s" target (Dse_error.to_string e))

(* The digest exchange is bounded per peer (a short timeout, one retry
   after a transport failure), so a hung ring neighbour never stalls the
   replication domain for long. A Stale_ring fence from a peer that is
   ahead triggers the config refetch and one retry. A peer that is
   behind is still being sent the config this node adopted (a join
   updates the newcomer first): poll it for up to [ae_timeout] rather
   than skip it, since nothing would re-run the pull. *)
let ae_timeout = 3.0

let ae_behind_poll = 0.05

let ae_exchange t peer keys =
  let deadline = Unix.gettimeofday () +. ae_timeout in
  let attempt () =
    peer_exchange ~timeout:ae_timeout peer
      (Protocol.Cache_query { ring_version = ring_version t; keys })
  in
  let rec go ~retried ~waited =
    match attempt () with
    | Ok (Protocol.Server_error (Dse_error.Stale_ring { seen; expected }))
      when expected < seen && Unix.gettimeofday () < deadline ->
      if not waited then
        t.log
          (Printf.sprintf "anti-entropy: %s is behind (v%d < v%d); waiting for it to adopt" peer
             expected seen);
      Unix.sleepf ae_behind_poll;
      go ~retried ~waited:true
    | Ok (Protocol.Server_error (Dse_error.Stale_ring _)) when refetch_config t peer -> attempt ()
    | Error _ when not retried ->
      t.log (Printf.sprintf "anti-entropy: %s did not answer, retrying once" peer);
      go ~retried:true ~waited
    | reply -> reply
  in
  go ~retried:false ~waited:false

(* Anti-entropy on (re)join and on every membership change: ask each
   ring neighbour for its cache-key digest, keep the keys this node
   participates in (it is among the first R nodes of the key's ring
   walk) and does not already hold, and pull exactly those. A
   WAL-restored restart pulls nothing; a WAL-less respawn re-warms its
   whole range from its peers; a joining node pulls its range while it
   already serves. *)
let anti_entropy t =
  let m = membership t in
  match m.ring with
  | Some ring when List.mem t.node_id m.nodes ->
    let wanted key =
      (not (Result_cache.mem t.cache key))
      && placed ~r:m.replication ~node:t.node_id ring key.Result_cache.fingerprint
    in
    List.iter
      (fun peer ->
        match ae_exchange t peer [] with
        | Ok (Protocol.Cache_reply { keys; _ }) -> (
          match List.filter wanted keys with
          | [] -> ()
          | missing -> (
            match ae_exchange t peer missing with
            | Ok (Protocol.Cache_reply { records; _ }) ->
              let pulled =
                List.fold_left
                  (fun acc record ->
                    match Wal.decode_record record with
                    | Some (key, entry) ->
                      store_replica t key entry;
                      acc + 1
                    | None -> acc)
                  0 records
              in
              t.log
                (Printf.sprintf "anti-entropy: pulled %d/%d missing entr%s from %s" pulled
                   (List.length missing)
                   (if pulled = 1 then "y" else "ies")
                   peer)
            | Ok _ | Error _ ->
              t.log (Printf.sprintf "anti-entropy: pull from %s failed" peer)))
        | Ok _ -> t.log (Printf.sprintf "anti-entropy: unexpected digest reply from %s" peer)
        | Error _ ->
          (* a dead or not-yet-started neighbour is normal during a rolling
             (re)start; replication-on-completion covers the gap *)
          t.log (Printf.sprintf "anti-entropy: %s unreachable, skipped" peer))
      (Ring.neighbors ring t.node_id)
  | _ -> ()

(* Fire due replica-GC batches (called from the front's select
   tick). Placement is re-checked under the *current* membership — a
   later config that restored a key rescues it — and survivors of the
   check are dropped from the cache, counted, and flushed from the WAL
   by an immediate compaction (replay must not resurrect a range this
   node no longer owns). *)
let run_replica_gc t =
  let now = Unix.gettimeofday () in
  let due =
    with_ring t (fun () ->
        let due, later = List.partition (fun (at, _) -> at <= now) t.gc_pending in
        t.gc_pending <- later;
        due)
  in
  if due <> [] then begin
    let m = membership t in
    let keep (key : Result_cache.key) =
      match m.ring with
      | None -> true
      | Some ring -> placed ~r:m.replication ~node:t.node_id ring key.Result_cache.fingerprint
    in
    let dropped =
      List.fold_left
        (fun acc (_, keys) ->
          List.fold_left
            (fun acc key ->
              if (not (keep key)) && Result_cache.mem t.cache key then begin
                Result_cache.remove t.cache key;
                acc + 1
              end
              else acc)
            acc keys)
        0 due
    in
    if dropped > 0 then begin
      ignore (Atomic.fetch_and_add t.replica_gc_dropped dropped);
      (match t.wal with
      | None -> ()
      | Some wal -> (
        match Wal.compact wal with
        | Ok () -> ()
        | Error e -> t.log (Printf.sprintf "replica-gc: wal compaction failed: %s" (Dse_error.to_string e))));
      t.log
        (Printf.sprintf "replica-gc: dropped %d entr%s outside this node's placement (ring v%d)"
           dropped
           (if dropped = 1 then "y" else "ies")
           m.version)
    end
  end

let health_reply t =
  let c = Result_cache.counters t.cache in
  let now = Unix.gettimeofday () in
  let workers, workers_replaced =
    match t.pool with
    | None -> ([], 0)
    | Some pool ->
      ( List.map
          (fun (v : job Worker_pool.view) ->
            let running = v.Worker_pool.running in
            {
              Protocol.slot = v.Worker_pool.slot;
              busy = running <> None;
              job = (match running with Some r -> r.Worker_pool.job.name | None -> "");
              heartbeat_age =
                (match running with
                | Some r -> Heartbeat.age ~now r.Worker_pool.heartbeat
                | None -> 0.);
              jobs_done = v.Worker_pool.jobs_done;
            })
          (Worker_pool.snapshot pool),
        Worker_pool.replaced pool )
  in
  Protocol.Health_reply
    {
      Protocol.node_id = t.node_id;
      start_epoch = t.started;
      uptime = now -. t.started;
      workers;
      workers_replaced;
      queue_depth = Job_queue.length t.queue;
      queue_watermark = watermark t.config;
      max_pending = t.config.max_pending;
      shed = Atomic.get t.shed;
      admission_rejected = Atomic.get t.admission_rejected;
      jobs_completed = Atomic.get t.jobs_completed;
      cache_hits = c.Result_cache.hits;
      cache_misses = c.Result_cache.misses;
      cache_entries = c.Result_cache.entries;
      cache_evictions = c.Result_cache.evictions;
      coalesced_hits = Inflight.coalesced t.inflight;
      wal_enabled = t.wal <> None;
      wal_appends = Atomic.get t.wal_appends;
      wal_failures = Atomic.get t.wal_failures;
      peer_hits = Atomic.get t.peer_hits;
      replicated_in = Atomic.get t.replicated_in;
      replicated_out = Atomic.get t.replicated_out;
      replication_lag = Job_queue.length t.repl_queue;
      replication_dropped = Atomic.get t.replication_dropped;
      ring_version = ring_version t;
      draining = Atomic.get t.draining;
      replica_gc_dropped = Atomic.get t.replica_gc_dropped;
    }

let respond_and_close t fd response =
  (match Protocol.write_response fd response with
  | Ok () -> ()
  | Error e -> t.log (Printf.sprintf "reply failed: %s" (Dse_error.to_string e)));
  close_noerr fd

(* Every party of a single flight — the leader plus its attached
   waiters — gets a reply built from its own name and query. *)
let respond_flight t job outcome =
  let waiters = Inflight.complete t.inflight job.key in
  let reply ~name ~query fd =
    let response =
      match outcome with
      | Ok entry ->
        Protocol.Result
          { Protocol.outcome = answer ~name ~query ~max_level:job.max_level entry;
            cache_hit = false }
      | Error e -> Protocol.Server_error e
    in
    respond_and_close t fd response
  in
  reply ~name:job.name ~query:job.query job.fd;
  List.iter
    (fun (w : Inflight.waiter) -> reply ~name:w.Inflight.name ~query:w.Inflight.query w.Inflight.fd)
    waiters

(* Runs in a worker domain. The kernel call goes through the standard
   [Analytical] pipeline, so [domains > 1] jobs get Shard_exec's
   per-shard recovery ladder and the job's cancel token — carrying this
   worker's heartbeat — is polled at the documented points; every
   failure — deadline expiry included — becomes a structured reply to
   this flight's clients and the worker lives on. A worker that lost
   the settled race (the watchdog already answered this flight) stores
   nothing and replies to no one: its fd may have been reused and a new
   flight for the same key may be in progress. *)
let run_job t ~heartbeat job =
  t.on_job_start ();
  let cancel = Cancel.with_heartbeat heartbeat job.cancel in
  let outcome =
    match
      (* the deadline clock started at submission, so time spent queued
         counts; an already-expired job fails here without a kernel run *)
      Cancel.check cancel;
      (match job.work with
      | Exact_work trace ->
        let prepared = Analytical.prepare ?max_level:job.max_level trace in
        (* O(1) off the arena build: the kernel never boxes the strip, so
           a job's heap cost is the decoded trace alone *)
        let stats = Analytical.stats prepared in
        let histograms = Analytical.histograms ~cancel ~domains:job.domains prepared in
        Result_cache.Exact { stats; histograms }
      | Approx_work profile ->
        (* the estimator is exercised once here, so a degenerate profile
           becomes a typed reply from the worker instead of an exception
           in a connection handler's answer path *)
        ignore (Approx_dse.prepare profile);
        Result_cache.Approx profile)
    with
    | entry -> Ok entry
    | exception Dse_error.Error e -> Error e
    | exception Invalid_argument message ->
      Error (Dse_error.Constraint_violation { context = "submit"; message })
    | exception e ->
      (* unexpected engine crash: internal-failure class (exit 5) *)
      Error (Dse_error.Shard_failure { shard = 0; attempts = 1; message = Printexc.to_string e })
  in
  if Atomic.compare_and_set job.settled false true then begin
    (match outcome with
    | Ok entry ->
      Result_cache.store t.cache job.key entry;
      (match t.wal with
      | None -> ()
      | Some wal -> (
        (* a full disk degrades persistence, never serving *)
        match Wal.append wal job.key entry with
        | Ok () -> Atomic.incr t.wal_appends
        | Error e ->
          Atomic.incr t.wal_failures;
          t.log (Printf.sprintf "wal append failed: %s" (Dse_error.to_string e))));
      replicate t job.key entry
    | Error _ -> ());
    Atomic.incr t.jobs_completed;
    respond_flight t job outcome
  end
  else
    t.log
      (Printf.sprintf "abandoned worker finished %s after the watchdog answered; result discarded"
         job.name)

(* The watchdog found a worker silent past the hang timeout and already
   replaced it ([Watchdog.scan] is atomic per worker). Settle the flight
   from the front's tick: cancel the job's token (an abandoned worker
   that was merely slow aborts at its next poll instead of burning a
   core to the end) and answer everyone with the typed stall. *)
let settle_stalled t (s : job Watchdog.stalled) =
  let job = s.Watchdog.job in
  if Atomic.compare_and_set job.settled false true then begin
    Cancel.cancel job.cancel;
    t.log
      (Printf.sprintf
         "watchdog: worker %d silent for %.2f s running %s; domain abandoned, replacement spawned"
         s.Watchdog.slot s.Watchdog.silent_for job.name);
    respond_flight t job
      (Error (Dse_error.Worker_stalled { elapsed = s.Watchdog.elapsed; job = job.name }))
  end

(* How long a drain waits for queued and in-flight jobs to finish
   before handing off warm state. New heavy work is already being shed,
   so this only covers the backlog at the moment the drain arrived. *)
let drain_settle_timeout = 30.0

(* Planned decommission. Runs on the connection handler that read the
   Drain — the other handlers keep answering meanwhile, so cache hits
   are served until routing moves — and the whole sequence is bounded:
   settle wait, then one bounded exchange per surviving target. Order
   matters: the control plane updates the survivors to the post-drain
   config *first*, so the handoff pushes (fenced at the new version)
   are accepted; the router is updated last, so this node keeps
   answering cache hits until the very moment routing moves — zero
   kernel re-runs on the drained range. *)
let handle_drain t fd (config : Protocol.ring_config) =
  let invalid message =
    respond_and_close t fd
      (Protocol.Server_error (Dse_error.Constraint_violation { context = "drain"; message }))
  in
  match validate_config config with
  | Error message -> invalid message
  | Ok () ->
    if List.mem t.node_id config.Protocol.nodes then
      invalid "post-drain config still contains this node"
    else begin
      let mine = current_config t in
      (* The post-drain config itself is no news: a push of this node's
         that a survivor fenced moments earlier refetched and adopted it.
         The handoff is still owed. *)
      if
        config.Protocol.ring_version < mine.Protocol.ring_version
        || (config.Protocol.ring_version = mine.Protocol.ring_version && config <> mine)
      then
        respond_and_close t fd
          (Protocol.Server_error
             (Dse_error.Stale_ring
                { seen = config.Protocol.ring_version; expected = mine.Protocol.ring_version }))
      else begin
        Atomic.set t.draining true;
        (* let the backlog finish: every entry to hand off must be in
           the cache, and new heavy submissions are now being shed *)
        let deadline = Unix.gettimeofday () +. drain_settle_timeout in
        let idle () =
          Job_queue.length t.queue = 0
          && (match t.pool with
             | None -> true
             | Some pool ->
               List.for_all
                 (fun (v : job Worker_pool.view) -> v.Worker_pool.running = None)
                 (Worker_pool.snapshot pool))
        in
        while (not (idle ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.02
        done;
        (* hand off every warm exact entry to its post-drain owners,
           batched into one Replicate per target *)
        let ring = Ring.create config.Protocol.nodes in
        let by_target : (string, string list) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (key, entry) ->
            match Wal.encode_record key entry with
            | None -> ()
            | Some record ->
              Ring.successors ring key.Result_cache.fingerprint
              |> List.filteri (fun i _ -> i < config.Protocol.replication)
              |> List.iter (fun target ->
                     Hashtbl.replace by_target target
                       (record :: Option.value ~default:[] (Hashtbl.find_opt by_target target))))
          (Result_cache.snapshot t.cache);
        let pushed =
          Hashtbl.fold
            (fun target records acc ->
              match
                peer_exchange target
                  (Protocol.Replicate
                     { ring_version = config.Protocol.ring_version; records = List.rev records })
              with
              | Ok (Protocol.Replicate_ack { stored }) ->
                ignore (Atomic.fetch_and_add t.replicated_out stored);
                acc + stored
              | Ok _ | Error _ ->
                t.log
                  (Printf.sprintf "drain: handoff of %d record(s) to %s failed"
                     (List.length records) target);
                acc)
            by_target 0
        in
        ignore (adopt_if_newer t config);
        t.log
          (Printf.sprintf "drain: handed off %d record(s); left the ring at v%d" pushed
             config.Protocol.ring_version);
        respond_and_close t fd
          (Protocol.Ring_reply { config = current_config t; draining = true; pushed })
      end
    end

let handle_submission t fd ~name ~trace ~query ~method_ ~domains ~max_level ~deadline =
  let reject message =
    respond_and_close t fd
      (Protocol.Server_error (Dse_error.Constraint_violation { context = "submit"; message }))
  in
  (* Total over (spec, decoded payload). The daemon's decoder sketches
     approx submissions, so Approx normally arrives Sketched; a
     materialised approx submission (a hand-crafted frame) is sketched
     here, and a sketched exact one is impossible to serve. *)
  let work =
    match (method_, trace) with
    | Protocol.Exact Analytical.Arena, Protocol.Full trace -> Ok (Exact_work trace)
    | Protocol.Approx, Protocol.Sketched profile -> Ok (Approx_work profile)
    | Protocol.Approx, Protocol.Full trace -> Ok (Approx_work (Sketch.of_trace trace))
    | Protocol.Exact _, Protocol.Sketched _ ->
      Error "a sketched submission cannot run an exact method"
  in
  match work with
  | Error message -> reject message
  | Ok work ->
  if Protocol.submission_refs trace = 0 then reject "empty trace"
  else if domains < 1 then reject "domains must be >= 1"
  else if (match deadline with Some d -> not (d > 0.) || d = infinity | None -> false) then
    reject "deadline must be a positive finite number of seconds"
  else begin
    let key =
      {
        Result_cache.fingerprint = Protocol.submission_fingerprint trace;
        method_tag = Protocol.method_spec_tag method_;
        domains;
        max_level = (match max_level with None -> -1 | Some level -> level);
      }
    in
    match Result_cache.find t.cache key with
    | Some entry ->
      (* hot path: answered by the connection handler, no queueing, no
         kernel — cache hits stay answerable even when the queue is
         shedding *)
      respond_and_close t fd
        (Protocol.Result
           { Protocol.outcome = answer ~name ~query ~max_level entry; cache_hit = true })
    | None -> (
      (* single flight: a duplicate of a job already running attaches
         to it instead of electing a redundant kernel run; the leader's
         worker answers everyone *)
      match Inflight.begin_ t.inflight key { Inflight.fd; name; query } with
      | `Attached -> ()
      | `Leader -> (
        let cancel =
          match deadline with
          | None -> Cancel.cancellable ()
          | Some seconds -> Cancel.after seconds
        in
        let job =
          { fd; name; work; query; domains; max_level; key; cancel;
            settled = Atomic.make false }
        in
        let fail_flight e = respond_flight t job (Error e) in
        (* Approx jobs are never shed: their kernel is O(ms) over O(kB)
           of state whatever the stream length, so they ride the light
           tier with pings and cache probes. *)
        let heavy =
          match work with
          | Exact_work trace -> Trace.length trace >= heavy_refs
          | Approx_work _ -> false
        in
        let pending = Job_queue.length t.queue in
        if (pending >= watermark t.config || Atomic.get t.draining) && heavy then begin
          (* overload shedding: past the watermark, heavy jobs are
             refused up front with a load-proportional retry hint, while
             light jobs, pings, health probes and cache hits still go
             through — graceful degradation instead of queue collapse.
             A draining node sheds every heavy job the same way: the
             retryable Queue_full sends new work elsewhere while cache
             hits keep being answered until routing moves off it. *)
          Atomic.incr t.shed;
          fail_flight
            (Dse_error.Queue_full
               { pending; max_pending = t.config.max_pending;
                 retry_after = retry_hint t.config ~pending })
        end
        else
          match Job_queue.push t.queue job with
          | `Ok -> () (* the worker now owns [fd] and the flight *)
          | `Full pending ->
            fail_flight
              (Dse_error.Queue_full
                 { pending; max_pending = t.config.max_pending;
                   retry_after = retry_hint t.config ~pending })
          | `Closed ->
            fail_flight
              (Dse_error.Io_error { file = t.config.socket_path; message = "server shutting down" })))
  end

(* Runs on one of the front's handler threads: read, decode and admit
   one request, answer it (cache hits included) or hand a kernel job to
   the worker queue. *)
let handle_connection t fd =
  match
    Protocol.read_request ?max_job_refs:t.config.max_job_refs
      ?memory_budget:t.config.memory_budget ~sketch_approx:true fd
  with
  | Ok None ->
    (* liveness probe (socket claim, monitoring): close silently *)
    close_noerr fd
  | Error e when Protocol.timed_out e ->
    (* replying to a peer that stalled mid-frame would hold this handler
       for the send timeout on top of the receive one *)
    t.log "dropped a connection that timed out mid-request";
    close_noerr fd
  | Error (Dse_error.Resource_exhausted _ as e) ->
    (* admission control tripped while the declared size was still a
       varint: nothing was allocated, the refusal is structured *)
    Atomic.incr t.admission_rejected;
    respond_and_close t fd (Protocol.Server_error e)
  | Error e -> respond_and_close t fd (Protocol.Server_error e)
  | Ok (Some Protocol.Ping) -> respond_and_close t fd Protocol.Pong
  | Ok (Some Protocol.Health) -> respond_and_close t fd (health_reply t)
  | Ok (Some (Protocol.Replicate { ring_version = seen; records })) -> (
    (* epoch fence first: a peer with a stale fleet view must refetch
       the config, not place warm state under the wrong ring *)
    match fence t seen with
    | Some e -> respond_and_close t fd (Protocol.Server_error e)
    | None ->
      (* a peer pushing warm results; an undecodable record is dropped
         (the ack count tells the pusher), it can never corrupt us *)
      let stored =
        List.fold_left
          (fun acc record ->
            match Wal.decode_record record with
            | Some (key, entry) ->
              store_replica t key entry;
              acc + 1
            | None ->
              t.log "replicate: dropped an undecodable record from a peer";
              acc)
          0 records
      in
      respond_and_close t fd (Protocol.Replicate_ack { stored }))
  | Ok (Some (Protocol.Cache_query { ring_version = seen; keys })) -> (
    match fence t seen with
    | Some e -> respond_and_close t fd (Protocol.Server_error e)
    | None -> (
      match keys with
      | [] ->
        (* digest form: advertise every replicable (exact) cache key *)
        respond_and_close t fd
          (Protocol.Cache_reply { keys = Result_cache.exact_keys t.cache; records = [] })
      | keys ->
        (* fetch form: a router failover lookup or an anti-entropy pull;
           each served entry is a kernel run someone else did not repeat *)
        let records =
          List.filter_map
            (fun key ->
              match Result_cache.find t.cache key with
              | Some entry -> (
                match Wal.encode_record key entry with
                | Some record ->
                  Atomic.incr t.peer_hits;
                  Some record
                | None -> None)
              | None -> None)
            keys
        in
        respond_and_close t fd (Protocol.Cache_reply { keys = []; records })))
  | Ok (Some Protocol.Ring_status) ->
    respond_and_close t fd
      (Protocol.Ring_reply
         { config = current_config t; draining = Atomic.get t.draining; pushed = 0 })
  | Ok (Some (Protocol.Ring_update { config })) -> (
    match validate_config config with
    | Error message ->
      respond_and_close t fd
        (Protocol.Server_error
           (Dse_error.Constraint_violation { context = "ring-update"; message }))
    | Ok () ->
      (* adopt-if-newer, then echo whatever view we hold now: the
         caller learns in one round whether it was news or a replay *)
      ignore (adopt_if_newer t config);
      respond_and_close t fd
        (Protocol.Ring_reply
           { config = current_config t; draining = Atomic.get t.draining; pushed = 0 }))
  | Ok (Some (Protocol.Drain { config })) -> handle_drain t fd config
  | Ok (Some (Protocol.Submit { name; trace; query; method_; domains; max_level; deadline })) ->
    handle_submission t fd ~name ~trace ~query ~method_ ~domains ~max_level ~deadline

(* Connection handlers: enough that a few stalled peers cannot starve
   the rest, and each one mostly waits on its socket. *)
let connection_handlers = 4

(* Accepted connections waiting for a handler; the job queue behind
   the handlers keeps its own [max_pending] bound. *)
let connection_backlog = 64

let run t =
  let pool =
    Worker_pool.start ~workers:t.config.workers
      ~run:(fun ~heartbeat job -> run_job t ~heartbeat job)
      t.queue
  in
  t.pool <- Some pool;
  (* One domain owns all outbound peer traffic: first the anti-entropy
     exchange (serving has already started — a node warms up while it
     answers), then the push-queue drain loop. Single-threaded pushes
     keep per-peer ordering and bound the node's outbound fan-out. *)
  let repl_domain =
    Domain.spawn (fun () ->
        let sync () =
          if t.config.anti_entropy then
            try anti_entropy t
            with e -> t.log (Printf.sprintf "anti-entropy failed: %s" (Printexc.to_string e))
        in
        sync ();
        let rec drain () =
          match Job_queue.pop t.repl_queue with
          | None -> ()
          | Some ("", _) ->
            (* membership-change sentinel: re-run the digest exchange
               under the just-adopted ring *)
            sync ();
            drain ()
          | Some (target, record) ->
            (try push_record t target record
             with e -> t.log (Printf.sprintf "replication push: %s" (Printexc.to_string e)));
            drain ()
        in
        drain ())
  in
  Front.run
    ~listeners:(t.listen_fd :: Option.to_list t.tcp_fd)
    ~handlers:connection_handlers ~max_pending:connection_backlog ~stopping:t.stopping
    ~tick:(fun () ->
      (* the watchdog rides the select tick: detection latency is
         bounded by hang_timeout plus one 0.1 s tick *)
      List.iter (settle_stalled t) (Watchdog.scan pool ~hang_timeout:t.config.hang_timeout);
      (* replica GC rides it too: due batches fire within a tick of
         their grace expiry *)
      run_replica_gc t)
    ~log:t.log (handle_connection t);
  (* drain: the front has closed the listeners and handled every
     connection it had accepted, so each of their jobs is queued; every
     queued and in-flight job is finished and answered (waiters
     included) before the daemon exits. Abandoned worker domains are
     deliberately not waited for. *)
  let pending = Job_queue.length t.queue in
  if pending > 0 then t.log (Printf.sprintf "draining %d pending job(s)" pending);
  Job_queue.close t.queue;
  Worker_pool.join pool;
  (* workers are done, so no new pushes can be queued: close the
     replication queue and let the domain drain what remains *)
  Job_queue.close t.repl_queue;
  Domain.join repl_domain;
  (match t.wal with Some wal -> Wal.close wal | None -> ());
  (try Unix.unlink t.config.socket_path with Unix.Unix_error (_, _, _) | Sys_error _ -> ());
  t.log
    (Printf.sprintf "drained; %d job(s) completed over this run" (Atomic.get t.jobs_completed))

let socket_path t = t.config.socket_path
