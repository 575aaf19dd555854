(* Tests for the warm-state replication plane: the net fault grammar,
   the v6 cluster verbs (Replicate / Cache_query) on the wire, ring
   neighbour enumeration, replicate-on-completion between live daemons,
   the router's peer cache lookup past a dead owner, anti-entropy pulls
   on (re)join (exactly the missing keys), least-loaded spill under a
   loaded owner, chaos-injected connection drops never corrupting
   answers, and the respawn reset of a backend's hedge latency window. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

let temp_socket_path () =
  let path = Filename.temp_file "dse_repl" ".sock" in
  Sys.remove path;
  path

(* Poll [f] for up to ~5 s; replication and health polling are
   asynchronous, so assertions on their counters must wait for the
   propagation they assert. *)
let eventually what f =
  let rec go tries =
    if f () then ()
    else if tries = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go (tries - 1)
    end
  in
  go 250

let server_config ?(workers = 2) ?wal_path ?(peers = []) ?(replication = 2)
    ?(anti_entropy = false) socket =
  { Server.socket_path = socket; tcp = None; node_id = None; workers; max_pending = 16;
    cache_entries = Result_cache.default_capacity; wal_path; hang_timeout = 30.;
    max_job_refs = None; memory_budget = None;
    peers; replication; replication_queue = 256; anti_entropy }

let start_server ?on_job_start config =
  let server =
    match Server.create ?on_job_start ~log:(fun _ -> ()) config with
    | Ok s -> s
    | Error e -> Alcotest.failf "server create: %s" (Dse_error.to_string e)
  in
  let runner = Domain.spawn (fun () -> Server.run server) in
  (server, runner)

let stop_server (server, runner) =
  Server.stop server;
  Domain.join runner

(* Starts an [n]-node cluster on fresh Unix sockets, each node peered
   with all the others (socket paths are the node ids, so every party
   derives the same ring), and hands the socket list to [f]. *)
let with_cluster ?(replication = 2) n f =
  let sockets = List.init n (fun _ -> temp_socket_path ()) in
  let servers =
    List.map
      (fun s ->
        let peers = List.filter (fun p -> p <> s) sockets in
        start_server (server_config ~peers ~replication s))
      sockets
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter stop_server servers;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) sockets)
    (fun () -> f sockets servers)

let with_router config f =
  let router =
    match Router.create ~log:(fun _ -> ()) config with
    | Ok r -> r
    | Error e -> Alcotest.failf "router create: %s" (Dse_error.to_string e)
  in
  let runner = Domain.spawn (fun () -> Router.run router) in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Domain.join runner;
      if Sys.file_exists config.Router.listen then Sys.remove config.Router.listen)
    (fun () -> f config.Router.listen router)

let router_config ?spill_threshold backends =
  { Router.default_config with
    Router.listen = temp_socket_path ();
    backends;
    request_timeout = 60.;
    health_interval = 0.2;
    health_timeout = 1.;
    breaker = { Breaker.default_config with Breaker.cooldown_base = 0.2 };
    spill_threshold }

let trace_of_seed seed = Synthetic.zipfian ~seed:(seed + 23) ~span:4096 ~skew:1.1 ~length:1500

let expect_table label trace payload =
  check_bool label true
    (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:label trace))

(* -- the net fault grammar -- *)

let test_net_fault_parse () =
  check_bool "net:drop:2" true
    (Fault.parse "net:drop:2" = Some { Fault.kind = Fault.Net_drop; times = 2 });
  check_bool "net:delay:3:25" true
    (Fault.parse "net:delay:3:25"
    = Some { Fault.kind = Fault.Net_delay 25; times = 3 });
  check_bool "zero-ms delay is legal" true
    (Fault.parse "net:delay:1:0"
    = Some { Fault.kind = Fault.Net_delay 0; times = 1 });
  List.iter
    (fun s -> check_bool (s ^ " rejected") true (Fault.parse s = None))
    [ "net:drop:0"; "net:drop"; "net:drop:x"; "net:delay:1"; "net:delay:1:-1"; "net:delay:0:5" ];
  (* the armed budget is consumed exactly [times] times *)
  Fault.set (Fault.parse "net:drop:2");
  check_bool "first drop fires" true (Fault.net_drop ());
  check_bool "second drop fires" true (Fault.net_drop ());
  check_bool "budget exhausted" false (Fault.net_drop ());
  Fault.set (Fault.parse "net:delay:1:40");
  check_bool "delay fires with its ms" true (Fault.net_delay () = Some 40);
  check_bool "delay budget exhausted" true (Fault.net_delay () = None);
  (* a drop spec never answers delay queries and vice versa *)
  Fault.set (Fault.parse "net:drop:5");
  check_bool "drop spec is not a delay" true (Fault.net_delay () = None);
  Fault.set None

(* -- v6 verbs on the wire -- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_cluster_verbs_roundtrip () =
  let keys =
    [
      { Result_cache.fingerprint = 0x0123456789abcdefL; method_tag = 3; domains = 1;
        max_level = -1 };
      { Result_cache.fingerprint = Int64.minus_one; method_tag = 0; domains = 8; max_level = 12 };
    ]
  in
  let records = [ "DSEW\x01raw-bytes\xff"; "" ] in
  let requests =
    [ Protocol.Replicate { ring_version = 0; records };
      Protocol.Replicate { ring_version = 42; records };
      Protocol.Cache_query { ring_version = 0; keys = [] };
      Protocol.Cache_query { ring_version = 7; keys };
      Protocol.Ring_status;
      Protocol.Ring_update
        { config = { ring_version = 2; nodes = [ "127.0.0.1:7701"; "127.0.0.1:7702" ]; replication = 2 } };
      Protocol.Drain
        { config = { ring_version = 3; nodes = [ "127.0.0.1:7702" ]; replication = 1 } } ]
  in
  List.iter
    (fun request ->
      with_socketpair (fun a b ->
          ok_or_fail (Protocol.write_request a request);
          match ok_or_fail (Protocol.read_request b) with
          | Some got -> check_bool "request round trips" true (got = request)
          | None -> Alcotest.fail "request read as a clean close"))
    requests;
  let responses =
    [ Protocol.Replicate_ack { stored = 0 };
      Protocol.Replicate_ack { stored = 7 };
      Protocol.Cache_reply { keys; records = [] };
      Protocol.Cache_reply { keys = []; records };
      Protocol.Ring_reply
        {
          config = { ring_version = 5; nodes = [ "a"; "b"; "c" ]; replication = 2 };
          draining = false;
          pushed = 0;
        };
      Protocol.Ring_reply
        {
          config = { ring_version = 1; nodes = [ "a" ]; replication = 1 };
          draining = true;
          pushed = 31;
        } ]
  in
  List.iter
    (fun response ->
      with_socketpair (fun a b ->
          ok_or_fail (Protocol.write_response a response);
          check_bool "response round trips" true
            (ok_or_fail (Protocol.read_response b) = response)))
    responses

(* -- ring neighbours -- *)

let test_ring_neighbors () =
  let nodes = [ "n0"; "n1"; "n2" ] in
  let ring = Ring.create nodes in
  List.iter
    (fun node ->
      let neighbors = Ring.neighbors ring node in
      check_bool (node ^ " never neighbours itself") false (List.mem node neighbors);
      (* on a small fleet the virtual points interleave everywhere: the
         neighbour set is every other node *)
      check_bool (node ^ " neighbours the rest of the fleet") true
        (List.sort String.compare neighbors
        = List.sort String.compare (List.filter (fun n -> n <> node) nodes));
      check_bool (node ^ " is deterministic") true (Ring.neighbors ring node = neighbors))
    nodes;
  (match Ring.neighbors ring "ghost" with
  | _ -> Alcotest.fail "unknown node accepted"
  | exception Invalid_argument _ -> ());
  (* a single-node ring has nobody to exchange with *)
  check_bool "singleton ring" true (Ring.neighbors (Ring.create [ "solo" ]) "solo" = [])

(* -- replicate on completion -- *)

let test_replicate_on_completion () =
  with_cluster 3 (fun sockets _servers ->
      let ring = Ring.create sockets in
      (* a trace owned by sockets[0], so the push target is the walk's
         second distinct node *)
      let owner = List.nth sockets 0 in
      let trace =
        let rec pick i =
          let t = trace_of_seed (300 + i) in
          if Ring.route ring (Trace.fingerprint t) = owner then t else pick (i + 1)
        in
        pick 0
      in
      let target =
        match Ring.successors ring (Trace.fingerprint trace) with
        | _ :: next :: _ -> next
        | _ -> Alcotest.fail "ring walk too short"
      in
      let payload = ok_or_fail (Client.submit ~socket:owner ~name:"repl" trace) in
      expect_table "repl" trace payload;
      check_bool "first answer is a miss" false payload.Protocol.cache_hit;
      (* the push is asynchronous: wait for both ends to account it *)
      eventually "the owner to push the record" (fun () ->
          (ok_or_fail (Client.health ~socket:owner)).Protocol.replicated_out = 1);
      eventually "the successor to store the record" (fun () ->
          (ok_or_fail (Client.health ~socket:target)).Protocol.replicated_in = 1);
      let target_health = ok_or_fail (Client.health ~socket:target) in
      check_int "replica landed in the successor's cache" 1
        target_health.Protocol.cache_entries;
      check_int "no kernel ran on the successor" 0 target_health.Protocol.jobs_completed;
      check_int "no queued pushes left behind" 0
        (ok_or_fail (Client.health ~socket:owner)).Protocol.replication_lag;
      (* the third node is off the R=2 placement: no copy *)
      let third = List.find (fun s -> s <> owner && s <> target) sockets in
      check_int "R=2 never touches the third node" 0
        (ok_or_fail (Client.health ~socket:third)).Protocol.replicated_in;
      (* the replica re-serves bit-identically, straight from cache *)
      let warm = ok_or_fail (Client.submit ~socket:target ~name:"repl" trace) in
      check_bool "replica serves as a cache hit" true warm.Protocol.cache_hit;
      check_bool "replica is bit-identical" true
        (warm.Protocol.outcome = payload.Protocol.outcome);
      check_int "still no kernel run on the successor" 0
        (ok_or_fail (Client.health ~socket:target)).Protocol.jobs_completed)

(* -- router peer lookup past a dead owner -- *)

let test_router_peer_lookup_on_failover () =
  with_cluster 3 (fun sockets servers ->
      with_router (router_config sockets) (fun addr router ->
          let ring = Ring.create ~replicas:64 sockets in
          let owner_index = 0 in
          let owner = List.nth sockets owner_index in
          let trace =
            let rec pick i =
              let t = trace_of_seed (400 + i) in
              if Ring.route ring (Trace.fingerprint t) = owner then t else pick (i + 1)
            in
            pick 0
          in
          let payload = ok_or_fail (Client.submit ~socket:addr ~name:"warm" trace) in
          expect_table "warm" trace payload;
          eventually "replication to a survivor" (fun () ->
              (ok_or_fail (Client.health ~socket:owner)).Protocol.replicated_out = 1);
          let survivors = List.filter (fun s -> s <> owner) sockets in
          let jobs_before =
            List.map
              (fun s -> (ok_or_fail (Client.health ~socket:s)).Protocol.jobs_completed)
              survivors
          in
          (* kill the owner; its warm range lives on in the replicas *)
          stop_server (List.nth servers owner_index);
          if Sys.file_exists owner then Sys.remove owner;
          (* the resubmit carries domains 2 on the wire: the daemons and
             the router's peer lookup key every exact result under one
             domain, so it still finds the warm replica *)
          let again =
            match
              Client.exchange addr
                (Protocol.Submit
                   { name = "warm"; trace = Protocol.Full trace;
                     query = Protocol.Percents [ 5; 10; 15; 20 ];
                     method_ = Protocol.Exact Analytical.Arena; domains = 2; max_level = None;
                     deadline = None })
            with
            | Ok (Protocol.Result p) -> p
            | Ok _ -> Alcotest.fail "expected a result"
            | Error e -> Alcotest.failf "resubmit: %s" (Dse_error.to_string e)
          in
          check_bool "peer relay is bit-identical" true
            (again.Protocol.outcome = payload.Protocol.outcome);
          check_bool "peer relay reads as a cache hit" true again.Protocol.cache_hit;
          check_int "one peer hit counted" 1 (Router.stats router).Router.peer_hits;
          (* zero kernel work anywhere: no survivor completed a job *)
          List.iter2
            (fun s before ->
              check_int "survivor ran no kernel" before
                (ok_or_fail (Client.health ~socket:s)).Protocol.jobs_completed)
            survivors jobs_before))

(* -- anti-entropy on (re)join -- *)

let submit_n sockets n =
  List.init n (fun i ->
      let trace = trace_of_seed (500 + i) in
      let name = Printf.sprintf "ae%d" i in
      let payload = ok_or_fail (Client.submit ~socket:(List.hd sockets) ~name trace) in
      expect_table name trace payload;
      (name, trace, payload))

let test_anti_entropy_rewarns_walless_restart () =
  let sockets = List.init 2 (fun _ -> temp_socket_path ()) in
  let a, b = (List.nth sockets 0, List.nth sockets 1) in
  let server_b = start_server (server_config ~peers:[ a ] b) in
  let server_a = ref (start_server (server_config ~peers:[ b ] a)) in
  Fun.protect
    ~finally:(fun () ->
      stop_server !server_a;
      stop_server server_b;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) sockets)
    (fun () ->
      (* with two nodes and R=2, every result computed on A also lands
         on B *)
      let jobs = submit_n sockets 4 in
      eventually "all four records to replicate to B" (fun () ->
          (ok_or_fail (Client.health ~socket:b)).Protocol.replicated_in = 4);
      (* A dies with no WAL: its cache is gone... *)
      stop_server !server_a;
      server_a := start_server (server_config ~peers:[ b ] ~anti_entropy:true a);
      (* ...and anti-entropy pulls its whole range back from B *)
      eventually "A to re-warm from its peer" (fun () ->
          let h = ok_or_fail (Client.health ~socket:a) in
          h.Protocol.cache_entries = 4 && h.Protocol.replicated_in = 4);
      check_int "B served the pulls as peer hits" 4
        (ok_or_fail (Client.health ~socket:b)).Protocol.peer_hits;
      (* every re-warmed entry answers bit-identically with zero kernel
         work on the respawned node *)
      List.iter
        (fun (name, trace, payload) ->
          let warm = ok_or_fail (Client.submit ~socket:a ~name trace) in
          check_bool (name ^ " served warm") true warm.Protocol.cache_hit;
          check_bool (name ^ " bit-identical") true
            (warm.Protocol.outcome = payload.Protocol.outcome))
        jobs;
      check_int "no kernel ran after the respawn" 0
        (ok_or_fail (Client.health ~socket:a)).Protocol.jobs_completed)

let test_anti_entropy_pulls_only_missing () =
  let sockets = List.init 2 (fun _ -> temp_socket_path ()) in
  let a, b = (List.nth sockets 0, List.nth sockets 1) in
  let wal = Filename.temp_file "dse_repl" ".wal" in
  let server_b = start_server (server_config ~peers:[ a ] b) in
  let server_a = ref (start_server (server_config ~peers:[ b ] ~wal_path:wal a)) in
  Fun.protect
    ~finally:(fun () ->
      stop_server !server_a;
      stop_server server_b;
      if Sys.file_exists wal then Sys.remove wal;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) sockets)
    (fun () ->
      ignore (submit_n sockets 4);
      eventually "replication to B" (fun () ->
          (ok_or_fail (Client.health ~socket:b)).Protocol.replicated_in = 4);
      stop_server !server_a;
      (* the WAL restored everything, so the digest exchange finds
         nothing missing: anti-entropy pulls exactly zero entries *)
      server_a := start_server (server_config ~peers:[ b ] ~wal_path:wal ~anti_entropy:true a);
      eventually "the WAL replay to finish" (fun () ->
          (ok_or_fail (Client.health ~socket:a)).Protocol.cache_entries = 4);
      (* give the anti-entropy domain time to run its exchange, then
         hold it to its contract *)
      Unix.sleepf 0.3;
      check_int "a WAL-restored restart pulls nothing" 0
        (ok_or_fail (Client.health ~socket:a)).Protocol.replicated_in)

(* -- least-loaded spill -- *)

let test_spill_least_loaded () =
  let sockets = List.init 2 (fun _ -> temp_socket_path ()) in
  let ring = Ring.create ~replicas:64 sockets in
  let owner = List.hd sockets in
  (* traces owned by [owner], distinct fingerprints *)
  let owned_trace =
    let rec pick i acc n =
      if n = 0 then List.rev acc
      else
        let t = trace_of_seed (600 + i) in
        if Ring.route ring (Trace.fingerprint t) = owner then pick (i + 1) (t :: acc) (n - 1)
        else pick (i + 1) acc n
    in
    pick 0 [] 4
  in
  let gate = Atomic.make true in
  let servers =
    List.map
      (fun s ->
        let on_job_start =
          (* only the owner wedges; the spill target must stay fast *)
          if s = owner then fun () -> while Atomic.get gate do Unix.sleepf 0.002 done
          else fun () -> ()
        in
        start_server ~on_job_start (server_config ~workers:1 s))
      sockets
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate false;
      List.iter stop_server servers;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) sockets)
    (fun () ->
      with_router (router_config ~spill_threshold:1.0 sockets) (fun addr router ->
          (* pile jobs onto the owner directly: one held in flight by
             the gate, the rest queued behind it *)
          let background =
            List.mapi
              (fun i trace ->
                Domain.spawn (fun () ->
                    Client.submit ~socket:owner ~name:(Printf.sprintf "bg%d" i) trace))
              (List.tl owned_trace)
          in
          eventually "the router to see the owner loaded" (fun () ->
              List.exists
                (fun v ->
                  v.Router.backend = owner && v.Router.queue >= 2 && v.Router.seen > 0.)
                (Router.snapshot router)
              && List.exists
                   (fun v -> v.Router.backend <> owner && v.Router.seen > 0.)
                   (Router.snapshot router));
          (* a submission owned by the loaded node spills to the idle
             one and still answers (the owner would block on the gate) *)
          let trace = List.hd owned_trace in
          let payload = ok_or_fail (Client.submit ~socket:addr ~name:"spill" trace) in
          expect_table "spill" trace payload;
          check_bool "spill counted" true ((Router.stats router).Router.spilled >= 1);
          let other = List.nth sockets 1 in
          check_int "the idle node ran the job" 1
            (ok_or_fail (Client.health ~socket:other)).Protocol.jobs_completed;
          (* release the gate and let the background jobs drain *)
          Atomic.set gate false;
          List.iter (fun d -> ignore (Domain.join d)) background))

(* -- chaos: net faults never corrupt answers -- *)

let test_net_drop_never_corrupts () =
  let socket = temp_socket_path () in
  let server = start_server (server_config socket) in
  Fun.protect
    ~finally:(fun () ->
      Fault.set None;
      stop_server server;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let trace = trace_of_seed 700 in
      (* two injected resets somewhere in the frame I/O; retries ride
         through and the final answer must still be exact *)
      Fault.set (Fault.parse "net:drop:2");
      let payload =
        ok_or_fail
          (Client.submit ~socket ~retries:10 ~retry_base:0.05 ~retry_cap:20. ~name:"chaos"
             trace)
      in
      expect_table "chaos" trace payload;
      check_bool "drop budget was consumed" false (Fault.net_drop ());
      (* injected latency delays but never damages a frame *)
      Fault.set (Fault.parse "net:delay:3:10");
      let slow = ok_or_fail (Client.submit ~socket ~name:"chaos" trace) in
      check_bool "delayed repeat is a cache hit" true slow.Protocol.cache_hit;
      check_bool "delayed repeat is bit-identical" true
        (slow.Protocol.outcome = payload.Protocol.outcome))

(* -- respawn clears the hedge latency window -- *)

let test_respawn_clears_hedge_window () =
  let socket = temp_socket_path () in
  let server = ref (start_server (server_config ~workers:2 socket)) in
  Fun.protect
    ~finally:(fun () ->
      stop_server !server;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      with_router (router_config [ socket ]) (fun addr router ->
          let view () =
            match Router.snapshot router with
            | [ v ] -> v
            | _ -> Alcotest.fail "expected one backend"
          in
          List.iter
            (fun i ->
              let trace = trace_of_seed (800 + i) in
              let name = Printf.sprintf "lat%d" i in
              expect_table name trace (ok_or_fail (Client.submit ~socket:addr ~name trace)))
            [ 0; 1; 2 ];
          check_int "forwarded answers fill the window" 3 (view ()).Router.hedge_samples;
          let old_epoch =
            eventually "the health poll to learn the epoch" (fun () -> (view ()).Router.epoch > 0.);
            (view ()).Router.epoch
          in
          (* respawn: same socket, same node id, a fresh process *)
          stop_server !server;
          server := start_server (server_config ~workers:2 socket);
          eventually "the router to notice the respawn" (fun () ->
              let v = view () in
              v.Router.epoch > old_epoch);
          check_int "respawn cleared the hedge window" 0 (view ()).Router.hedge_samples))

let suites =
  [
    ( "replication:faults",
      [ Alcotest.test_case "net fault grammar and budgets" `Quick test_net_fault_parse ] );
    ( "replication:protocol",
      [
        Alcotest.test_case "cluster verbs round trip" `Quick test_cluster_verbs_roundtrip;
        Alcotest.test_case "ring neighbours" `Quick test_ring_neighbors;
      ] );
    ( "replication:cluster",
      [
        Alcotest.test_case "replicate on completion" `Quick test_replicate_on_completion;
        Alcotest.test_case "anti-entropy re-warms a WAL-less restart" `Quick
          test_anti_entropy_rewarns_walless_restart;
        Alcotest.test_case "anti-entropy pulls only the missing keys" `Quick
          test_anti_entropy_pulls_only_missing;
      ] );
    ( "replication:router",
      [
        Alcotest.test_case "peer cache lookup past a dead owner" `Quick
          test_router_peer_lookup_on_failover;
        Alcotest.test_case "least-loaded spill" `Quick test_spill_least_loaded;
        Alcotest.test_case "respawn clears the hedge window" `Quick
          test_respawn_clears_hedge_window;
      ] );
    ( "replication:chaos",
      [ Alcotest.test_case "net drops never corrupt answers" `Quick test_net_drop_never_corrupts ]
    );
  ]
