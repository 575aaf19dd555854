(* Tests for the multi-node serving stack: the transport address
   grammar, frame I/O under byte-at-a-time delivery (short reads), the
   consistent-hash ring (unit + qcheck membership-churn properties),
   the per-backend circuit breaker state machine, client retry through
   a daemon restart, node identity across respawns, and the routing
   gateway end to end — fingerprint locality, failover past a dead
   backend, typed exhaustion, and hedged requests. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

let temp_socket_path () =
  let path = Filename.temp_file "dse_router" ".sock" in
  Sys.remove path;
  path

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> Alcotest.fail "unexpected sockname")

let server_config ?(workers = 2) ?tcp ?node_id socket =
  { Server.socket_path = socket; tcp; node_id; workers; max_pending = 16;
    cache_entries = Result_cache.default_capacity; wal_path = None; hang_timeout = 30.;
    max_job_refs = None; memory_budget = None;
    peers = []; replication = 2; replication_queue = 256; anti_entropy = false }

let start_server config =
  let server =
    match Server.create ~log:(fun _ -> ()) config with
    | Ok s -> s
    | Error e -> Alcotest.failf "server create: %s" (Dse_error.to_string e)
  in
  let runner = Domain.spawn (fun () -> Server.run server) in
  (server, runner)

let stop_server (server, runner) =
  Server.stop server;
  Domain.join runner

(* Starts [n] daemons on fresh Unix sockets and hands their socket
   paths (also their ring names) to [f]. *)
let with_backends ?workers n f =
  let sockets = List.init n (fun _ -> temp_socket_path ()) in
  let servers = List.map (fun s -> start_server (server_config ?workers s)) sockets in
  Fun.protect
    ~finally:(fun () ->
      List.iter stop_server servers;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) sockets)
    (fun () -> f sockets servers)

let router_config ?(hedge = Router.Adaptive) ?(request_timeout = 60.) backends =
  { Router.default_config with
    Router.listen = temp_socket_path ();
    backends;
    request_timeout;
    hedge;
    (* poll briskly so breaker resets after a respawn are timely *)
    health_interval = 0.2;
    health_timeout = 1.;
    breaker = { Breaker.default_config with Breaker.cooldown_base = 0.2 } }

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

(* Distinct, cheap traces with well-spread fingerprints. *)
let trace_of_seed seed = Synthetic.zipfian ~seed:(seed + 11) ~span:4096 ~skew:1.1 ~length:1500

(* [label] must be the name the trace was submitted under: the
   rendered table embeds it. *)
let expect_table label trace payload =
  check_bool label true
    (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:label trace))

(* -- transport: address grammar and listeners -- *)

let test_transport_parse () =
  let tcp host port = Transport.Tcp { host; port } in
  List.iter
    (fun (input, expected) ->
      check_bool input true (Transport.parse input = expected))
    [
      ("127.0.0.1:7700", tcp "127.0.0.1" 7700);
      (":7700", tcp "" 7700);
      ("node7.rack2:65535", tcp "node7.rack2" 65535);
      ("/tmp/dse.sock", Transport.Unix_socket "/tmp/dse.sock");
      (* a colon whose suffix is not a valid port stays a path *)
      ("/tmp/dse:sock", Transport.Unix_socket "/tmp/dse:sock");
      ("host:notaport", Transport.Unix_socket "host:notaport");
      ("host:0", Transport.Unix_socket "host:0");
      ("host:65536", Transport.Unix_socket "host:65536");
      (* a '/' anywhere before the colon means filesystem, not DNS *)
      ("/var/run/x:7700", Transport.Unix_socket "/var/run/x:7700");
      ("relative.sock", Transport.Unix_socket "relative.sock");
    ];
  (* to_string survives a parse round trip for both transports *)
  List.iter
    (fun s -> check_bool ("roundtrip " ^ s) true (Transport.to_string (Transport.parse s) = s))
    [ "127.0.0.1:7700"; "/tmp/dse.sock" ]

let test_transport_listeners () =
  (* TCP: binding port 0 yields an ephemeral port we can read back *)
  let fd = ok_or_fail (Transport.listen (Transport.Tcp { host = "127.0.0.1"; port = 0 })) in
  (match Transport.bound_port fd with
  | Some port -> check_bool "ephemeral port" true (port > 0)
  | None -> Alcotest.fail "no port for a TCP listener");
  Unix.close fd;
  (* Unix socket: a stale file from a crashed daemon is reclaimed *)
  let path = temp_socket_path () in
  let addr = Transport.Unix_socket path in
  let first = ok_or_fail (Transport.listen addr) in
  check_bool "no port for a unix listener" true (Transport.bound_port first = None);
  Unix.close first;
  (* the socket file is still on disk but nobody listens: a second
     listen must probe, unlink, and succeed *)
  check_bool "stale file left behind" true (Sys.file_exists path);
  let second = ok_or_fail (Transport.listen addr) in
  Unix.close second;
  Transport.unlink addr;
  check_bool "unlinked" false (Sys.file_exists path)

let test_tcp_loopback_identity () =
  let socket = temp_socket_path () in
  let port = free_port () in
  let tcp_addr = Printf.sprintf "127.0.0.1:%d" port in
  let server = start_server (server_config ~tcp:tcp_addr socket) in
  Fun.protect
    ~finally:(fun () ->
      stop_server server;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      ok_or_fail (Client.ping ~socket:tcp_addr);
      let trace = trace_of_seed 1 in
      let over_tcp = ok_or_fail (Client.submit ~socket:tcp_addr ~name:"tcp" trace) in
      expect_table "tcp" trace over_tcp;
      (* the very same daemon over its Unix socket answers from cache:
         one service, two transports *)
      let over_uds = ok_or_fail (Client.submit ~socket ~name:"tcp" trace) in
      check_bool "shared cache across transports" true over_uds.Protocol.cache_hit;
      check_bool "identical payload" true
        (over_uds.Protocol.outcome = over_tcp.Protocol.outcome))

(* -- frame I/O under short reads -- *)

(* Capture the exact bytes a frame writer emits. *)
let capture_frame write =
  let r, w = Unix.pipe () in
  ok_or_fail (write w);
  Unix.close w;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close r;
  Buffer.to_bytes buf

(* Deliver [bytes] one at a time with a pause between writes, so the
   reader's kernel buffer holds at most a byte or two per read and
   every multi-byte field — magic, LEB128 length, payload, CRC — is
   assembled across short reads. *)
let drip_feed bytes fd =
  Domain.spawn (fun () ->
      Bytes.iter
        (fun c ->
          ignore (Unix.write fd (Bytes.make 1 c) 0 1);
          Unix.sleepf 0.0005)
        bytes;
      Unix.close fd)

let test_frame_reads_survive_dripping () =
  let trace = Trace.of_list [ { Trace.addr = 16; kind = Trace.Fetch };
                              { Trace.addr = 4096; kind = Trace.Write } ] in
  let request =
    Protocol.Submit
      { name = "drip"; trace = Protocol.Full trace; query = Protocol.Percents [ 5; 10 ];
        method_ = Protocol.Exact Analytical.Arena; domains = 2; max_level = Some 6;
        deadline = None }
  in
  let request_bytes = capture_frame (fun fd -> Protocol.write_request fd request) in
  check_bool "frame spans many reads" true (Bytes.length request_bytes > 16);
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let feeder = drip_feed request_bytes a in
  let read_back =
    match Protocol.read_request b with
    | Ok (Some r) -> r
    | Ok None -> Alcotest.fail "dripped request read as a clean close"
    | Error e -> Alcotest.failf "dripped request rejected: %s" (Dse_error.to_string e)
  in
  Domain.join feeder;
  Unix.close b;
  (match (read_back, request) with
  | Protocol.Submit got, Protocol.Submit sent ->
    check_bool "trace intact" true
      (match (got.trace, sent.trace) with
      | Protocol.Records g, Protocol.Full s ->
        Trace.to_list (Trace_records.to_trace g) = Trace.to_list s
      | _ -> false);
    check_bool "query intact" true (got.query = sent.query);
    check_int "domains intact" sent.domains got.domains
  | _ -> Alcotest.fail "expected Submit");
  (* and the response direction, which carries floats and histograms *)
  let response =
    Protocol.Server_error (Dse_error.Backend_unavailable { node = "n1"; attempts = 3 })
  in
  let response_bytes = capture_frame (fun fd -> Protocol.write_response fd response) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let feeder = drip_feed response_bytes a in
  (match Protocol.read_response b with
  | Ok r -> check_bool "response intact" true (r = response)
  | Error e -> Alcotest.failf "dripped response rejected: %s" (Dse_error.to_string e));
  Domain.join feeder;
  Unix.close b

(* -- consistent-hash ring -- *)

let fingerprints n =
  (* spread deterministic pseudo-fingerprints over the 64-bit space *)
  List.init n (fun i -> Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)

let test_ring_basics () =
  let nodes = [ "n0"; "n1"; "n2"; "n3" ] in
  let ring = Ring.create nodes in
  check_bool "nodes echoed" true (Ring.nodes ring = nodes);
  List.iter
    (fun fp ->
      let owner = Ring.route ring fp in
      check_bool "owner is a member" true (List.mem owner nodes);
      check_bool "routing is deterministic" true (Ring.route ring fp = owner);
      let order = Ring.successors ring fp in
      check_bool "successors start at the owner" true (List.hd order = owner);
      check_bool "successors are a permutation of the nodes" true
        (List.sort String.compare order = List.sort String.compare nodes))
    (fingerprints 64);
  (* construction rejects degenerate inputs *)
  List.iter
    (fun bad ->
      match bad () with
      | _ -> Alcotest.fail "accepted a degenerate ring"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Ring.create []);
      (fun () -> Ring.create [ "a"; "a" ]);
      (fun () -> Ring.create ~replicas:0 [ "a" ]);
    ]

let test_ring_membership_churn () =
  let four = [ "n0"; "n1"; "n2"; "n3" ] in
  let ring4 = Ring.create four in
  let ring5 = Ring.create (four @ [ "n4" ]) in
  let keys = fingerprints 2000 in
  let moved = ref 0 in
  List.iter
    (fun fp ->
      let before = Ring.route ring4 fp in
      let after = Ring.route ring5 fp in
      if before <> after then begin
        incr moved;
        (* a join steals keys for the new node only: survivors never
           trade keys among themselves... *)
        check_bool "moved keys land on the joiner" true (after = "n4")
      end;
      (* ...and symmetrically, a leave returns the leaver's keys and
         touches nothing else (same two rings read in reverse) *)
      if after <> "n4" then check_bool "leave only moves the leaver's keys" true (before = after))
    keys;
  let fraction = float_of_int !moved /. float_of_int (List.length keys) in
  check_bool
    (Printf.sprintf "~1/5 of keys move on a 4->5 join (got %.3f)" fraction)
    true
    (fraction > 0.08 && fraction < 0.4)

let qcheck count name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_ring_case =
  QCheck2.Gen.(pair (int_range 2 8) (list_size (int_range 1 64) int64))

let prop_ring_membership (n, keys) =
  let nodes = List.init n (Printf.sprintf "node%d") in
  let ring = Ring.create ~replicas:32 nodes in
  List.for_all
    (fun fp ->
      let order = Ring.successors ring fp in
      List.hd order = Ring.route ring fp
      && List.sort String.compare order = List.sort String.compare nodes)
    keys

let prop_ring_join_moves_only_to_joiner (n, keys) =
  let nodes = List.init n (Printf.sprintf "node%d") in
  let joiner = "joiner" in
  let before = Ring.create ~replicas:32 nodes in
  let after = Ring.create ~replicas:32 (nodes @ [ joiner ]) in
  List.for_all
    (fun fp ->
      let a = Ring.route before fp and b = Ring.route after fp in
      b = a || b = joiner)
    keys

(* -- circuit breaker -- *)

let test_breaker_state_machine () =
  let config =
    { Breaker.failure_threshold = 2; cooldown_base = 0.5; cooldown_cap = 1.25 }
  in
  let b = Breaker.create ~config () in
  let now = 1000. in
  check_bool "starts closed" true (Breaker.state b = Breaker.Closed);
  check_bool "closed admits" true (Breaker.acquire b ~now);
  (* failures below the threshold keep it closed *)
  Breaker.record_failure b ~now;
  check_bool "one failure stays closed" true (Breaker.state b = Breaker.Closed);
  (* a success clears the count: the threshold is consecutive *)
  Breaker.record_success b;
  Breaker.record_failure b ~now;
  check_bool "count was reset" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now;
  check_bool "threshold trips open" true (Breaker.state b = Breaker.Open);
  check_bool "open rejects" false (Breaker.acquire b ~now:(now +. 0.1));
  (* a straggler failure during the open period must not extend it *)
  Breaker.record_failure b ~now:(now +. 0.4);
  check_bool "cooldown elapsed: one probe admitted" true (Breaker.acquire b ~now:(now +. 0.6));
  check_bool "half-open" true (Breaker.state b = Breaker.Half_open);
  check_bool "half-open admits only the probe" false (Breaker.acquire b ~now:(now +. 0.6));
  (* a failed probe re-opens with the cooldown doubled *)
  Breaker.record_failure b ~now:(now +. 0.6);
  check_bool "re-opened" true (Breaker.state b = Breaker.Open);
  check_bool "doubled cooldown" true (Breaker.cooldown b = 1.0);
  check_bool "still cooling at +0.9" false (Breaker.acquire b ~now:(now +. 1.5));
  check_bool "probe after the longer cooldown" true (Breaker.acquire b ~now:(now +. 1.7));
  Breaker.record_failure b ~now:(now +. 1.7);
  check_bool "backoff capped" true (Breaker.cooldown b = 1.25);
  (* a successful probe closes and forgets the backoff *)
  check_bool "probe admitted at the cap" true (Breaker.acquire b ~now:(now +. 3.))
  ;
  Breaker.record_success b;
  check_bool "closed again" true (Breaker.state b = Breaker.Closed);
  check_bool "cooldown back to base" true (Breaker.cooldown b = 0.5);
  (* reset forgives an open breaker outright (respawned backend) *)
  Breaker.record_failure b ~now;
  Breaker.record_failure b ~now;
  check_bool "tripped for the reset test" true (Breaker.state b = Breaker.Open);
  Breaker.reset b;
  check_bool "reset closes" true (Breaker.state b = Breaker.Closed);
  check_bool "reset admits" true (Breaker.acquire b ~now);
  (* construction rejects nonsense *)
  List.iter
    (fun config ->
      match Breaker.create ~config () with
      | _ -> Alcotest.fail "accepted a degenerate breaker config"
      | exception Invalid_argument _ -> ())
    [
      { Breaker.failure_threshold = 0; cooldown_base = 0.5; cooldown_cap = 10. };
      { Breaker.failure_threshold = 3; cooldown_base = 0.; cooldown_cap = 10. };
      { Breaker.failure_threshold = 3; cooldown_base = 0.5; cooldown_cap = 0.1 };
    ]

(* -- client retry through a daemon restart -- *)

let test_clean_close_is_retryable () =
  (* a peer that vanishes between accept and reply must classify as a
     transient Io_error (exit 3, retried), never Corrupt_binary *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  (match Protocol.read_response b with
  | Error (Dse_error.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong class for a clean close: %s" (Dse_error.to_string e)
  | Ok _ -> Alcotest.fail "read a response from a closed socket");
  Unix.close b

let test_retry_rides_through_restart () =
  let socket = temp_socket_path () in
  (* leave a stale socket file behind, as a crashed daemon would: the
     first attempts see ECONNREFUSED rather than ENOENT *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket);
  Unix.close stale;
  let slot = Atomic.make None in
  let starter =
    Domain.spawn (fun () ->
        Unix.sleepf 0.4;
        let server, runner = start_server (server_config socket) in
        Atomic.set slot (Some server);
        Domain.join runner)
  in
  Fun.protect
    ~finally:(fun () ->
      let rec wait () =
        match Atomic.get slot with
        | Some server -> Server.stop server
        | None ->
          Unix.sleepf 0.01;
          wait ()
      in
      wait ();
      Domain.join starter;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let trace = trace_of_seed 2 in
      (* without retries the window is fatal... *)
      (match Client.submit ~socket ~name:"eager" trace with
      | Error (Dse_error.Io_error _) -> ()
      | Error e -> Alcotest.failf "wrong error class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "submit succeeded before the daemon started");
      (* ...with retries the same call rides through the restart *)
      let payload =
        ok_or_fail
          (Client.submit ~socket ~retries:10 ~retry_base:0.1 ~retry_cap:20. ~name:"patient"
             trace)
      in
      expect_table "patient" trace payload)

(* -- node identity across respawns -- *)

let test_node_identity_across_restart () =
  let socket = temp_socket_path () in
  let run_once () =
    let server = start_server (server_config ~node_id:"alpha" socket) in
    Fun.protect
      ~finally:(fun () -> stop_server server)
      (fun () -> ok_or_fail (Client.health ~socket))
  in
  let first = run_once () in
  Unix.sleepf 0.02;
  let second = run_once () in
  if Sys.file_exists socket then Sys.remove socket;
  check_bool "configured id" true (first.Protocol.node_id = "alpha");
  check_bool "id is stable across the respawn" true
    (second.Protocol.node_id = first.Protocol.node_id);
  check_bool "epoch is positive" true (first.Protocol.start_epoch > 0.);
  check_bool "respawn has a newer epoch" true
    (second.Protocol.start_epoch > first.Protocol.start_epoch);
  (* defaults: a TCP daemon identifies by its TCP address, a local one
     by its socket path *)
  let port = free_port () in
  let tcp_addr = Printf.sprintf "127.0.0.1:%d" port in
  let tcp_socket = temp_socket_path () in
  let server = start_server (server_config ~tcp:tcp_addr tcp_socket) in
  let tcp_health =
    Fun.protect
      ~finally:(fun () ->
        stop_server server;
        if Sys.file_exists tcp_socket then Sys.remove tcp_socket)
      (fun () -> ok_or_fail (Client.health ~socket:tcp_socket))
  in
  check_bool "default tcp identity" true (tcp_health.Protocol.node_id = tcp_addr);
  let uds_socket = temp_socket_path () in
  let server = start_server (server_config uds_socket) in
  let uds_health =
    Fun.protect
      ~finally:(fun () ->
        stop_server server;
        if Sys.file_exists uds_socket then Sys.remove uds_socket)
      (fun () -> ok_or_fail (Client.health ~socket:uds_socket))
  in
  check_bool "default uds identity" true (uds_health.Protocol.node_id = uds_socket)

(* -- the routing gateway -- *)

let test_router_identity_and_locality () =
  with_backends 3 (fun backends _servers ->
      with_router (router_config backends) (fun addr router ->
          ok_or_fail (Client.ping ~socket:addr);
          let traces = List.init 12 (fun i -> (Printf.sprintf "t%d" i, trace_of_seed i)) in
          (* every routed answer is bit-identical to the direct pipeline *)
          List.iter
            (fun (name, trace) ->
              let payload = ok_or_fail (Client.submit ~socket:addr ~name trace) in
              expect_table name trace payload)
            traces;
          (* fingerprint routing spread the jobs over several backends *)
          let loads =
            List.map
              (fun socket -> (ok_or_fail (Client.health ~socket)).Protocol.jobs_completed)
              backends
          in
          check_int "all jobs accounted for" (List.length traces)
            (List.fold_left ( + ) 0 loads);
          check_bool "load spread over >= 2 backends" true
            (List.length (List.filter (fun n -> n > 0) loads) >= 2);
          (* a repeat routes to the same backend and hits its cache *)
          let name, trace = List.hd traces in
          let repeat = ok_or_fail (Client.submit ~socket:addr ~name trace) in
          check_bool "repeat is a cache hit" true repeat.Protocol.cache_hit;
          (* health through the gateway reaches a real backend *)
          let h = ok_or_fail (Client.health ~socket:addr) in
          check_bool "health forwarded to a member" true (List.mem h.Protocol.node_id backends);
          let s = Router.stats router in
          check_bool "no failovers on a healthy fleet" true (s.Router.failovers = 0);
          check_bool "no hedges on a fast fleet" true (s.Router.hedged = 0)))

(* A retired method byte is refused while the gateway decodes the
   frame, before any backend is involved; an arena submission on the
   same gateway still lands. *)
let test_router_rejects_retired_methods () =
  with_backends 1 (fun backends _servers ->
      with_router (router_config backends) (fun addr router ->
          Frames.expect_retired_methods_rejected addr;
          check_int "no backend saw them" 0
            (ok_or_fail (Client.health ~socket:(List.hd backends))).Protocol.jobs_completed;
          check_bool "no failovers" true ((Router.stats router).Router.failovers = 0);
          let trace = trace_of_seed 0 in
          let payload = ok_or_fail (Client.submit ~socket:addr ~name:"after" trace) in
          expect_table "after" trace payload))

let test_router_failover_past_dead_backend () =
  with_backends 3 (fun backends servers ->
      with_router (router_config backends) (fun addr router ->
          (* predict routing with an identical ring, then kill exactly
             the backend that owns a chosen trace *)
          let ring = Ring.create ~replicas:64 backends in
          let victim_name, victim_trace =
            let rec pick i =
              let trace = trace_of_seed (100 + i) in
              let owner = Ring.route ring (Trace.fingerprint trace) in
              if owner = List.nth backends 0 then trace else pick (i + 1)
            in
            (List.nth backends 0, pick 0)
          in
          stop_server (List.nth servers 0);
          if Sys.file_exists victim_name then Sys.remove victim_name;
          (* the victim's hash range fails over; the answer is still
             bit-identical *)
          let payload = ok_or_fail (Client.submit ~socket:addr ~name:"orphan" victim_trace) in
          expect_table "orphan" victim_trace payload;
          let s = Router.stats router in
          check_bool "failover recorded" true (s.Router.failovers >= 1);
          check_int "no exhaustion" 0 s.Router.unavailable;
          (* repeats of the rerouted trace warm the fallback's cache *)
          let again = ok_or_fail (Client.submit ~socket:addr ~name:"orphan" victim_trace) in
          check_bool "spill cache warmed" true again.Protocol.cache_hit;
          (* and unrelated traffic still round-robins over the survivors *)
          List.iter
            (fun i ->
              let trace = trace_of_seed (200 + i) in
              let name = Printf.sprintf "after%d" i in
              expect_table name trace (ok_or_fail (Client.submit ~socket:addr ~name trace)))
            [ 0; 1; 2; 3 ]))

let test_router_exhaustion_is_typed () =
  (* two configured backends, neither running *)
  let ghosts = [ temp_socket_path (); temp_socket_path () ] in
  with_router (router_config ghosts) (fun addr _router ->
      let trace = trace_of_seed 3 in
      match Client.submit ~socket:addr ~name:"doomed" trace with
      | Error (Dse_error.Backend_unavailable { node; attempts } as e) ->
        check_bool "owning node reported" true (List.mem node ghosts);
        check_bool "attempts counted" true (attempts >= 1 && attempts <= 2);
        check_int "exit code 9" 9 (Dse_error.exit_code e)
      | Error e -> Alcotest.failf "wrong error class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "a dead fleet produced a result")

let test_router_config_validation () =
  List.iter
    (fun config ->
      match Router.create ~log:(fun _ -> ()) config with
      | Ok _ -> Alcotest.fail "accepted a degenerate router config"
      | Error (Dse_error.Constraint_violation _) -> ()
      | Error e -> Alcotest.failf "wrong error class: %s" (Dse_error.to_string e))
    [
      { Router.default_config with Router.listen = temp_socket_path (); backends = [] };
      { Router.default_config with
        Router.listen = temp_socket_path ();
        backends = [ "/tmp/a.sock"; "/tmp/a.sock" ] };
      { (router_config [ "/tmp/a.sock" ]) with Router.forwarders = 0 };
      { (router_config [ "/tmp/a.sock" ]) with Router.hedge = Router.Fixed 0. };
      { (router_config [ "/tmp/a.sock" ]) with Router.replicas = 0 };
    ]

(* The hang fires at the start of a kernel run, whatever the trace; a
   small one keeps the healthy run short — the same shape the watchdog
   tests use. *)
let hang_trace = lazy (Synthetic.loop ~base:0 ~body:256 ~iterations:64)

let test_router_hedges_slow_backend () =
  let trace = Lazy.force hang_trace in
  with_backends ~workers:1 2 (fun backends _servers ->
      with_router
        (router_config ~hedge:(Router.Fixed 0.3) backends)
        (fun addr router ->
          (* the first worker to run the job wedges silently; the
             hedge must win on the other backend *)
          Fault.set (Fault.parse "hang");
          Fun.protect
            ~finally:(fun () ->
              Fault.set None;
              Fault.release_hangs ())
            (fun () ->
              let started = Unix.gettimeofday () in
              let payload =
                ok_or_fail (Client.submit ~socket:addr ~name:"slow" trace)
              in
              let elapsed = Unix.gettimeofday () -. started in
              check_bool "hedge answer is bit-identical" true
                (payload.Protocol.outcome
                = Protocol.Table (Analytical_dse.run ~name:"slow" trace));
              let s = Router.stats router in
              check_bool "a hedge was fired" true (s.Router.hedged >= 1);
              check_bool "the hedge won" true (s.Router.hedge_wins >= 1);
              (* rescued well before the request timeout *)
              check_bool
                (Printf.sprintf "rescued by the hedge (%.2f s)" elapsed)
                true (elapsed < 30.))))

let suites =
  [
    ( "router:transport",
      [
        Alcotest.test_case "address grammar" `Quick test_transport_parse;
        Alcotest.test_case "listeners and stale sockets" `Quick test_transport_listeners;
        Alcotest.test_case "tcp loopback identity" `Quick test_tcp_loopback_identity;
        Alcotest.test_case "frames survive byte-at-a-time delivery" `Quick
          test_frame_reads_survive_dripping;
      ] );
    ( "router:ring",
      [
        Alcotest.test_case "routing and successors" `Quick test_ring_basics;
        Alcotest.test_case "membership churn moves ~1/N keys" `Quick test_ring_membership_churn;
        qcheck 150 "successors are a rotation of the node set" gen_ring_case
          prop_ring_membership;
        qcheck 150 "a join moves keys only to the joiner" gen_ring_case
          prop_ring_join_moves_only_to_joiner;
      ] );
    ( "router:breaker",
      [ Alcotest.test_case "state machine and backoff" `Quick test_breaker_state_machine ] );
    ( "router:retry",
      [
        Alcotest.test_case "clean close is retryable" `Quick test_clean_close_is_retryable;
        Alcotest.test_case "retry rides through a restart" `Quick
          test_retry_rides_through_restart;
        Alcotest.test_case "node identity across restarts" `Quick
          test_node_identity_across_restart;
      ] );
    ( "router:gateway",
      [
        Alcotest.test_case "identity and cache locality" `Quick
          test_router_identity_and_locality;
        Alcotest.test_case "failover past a dead backend" `Quick
          test_router_failover_past_dead_backend;
        Alcotest.test_case "exhaustion is typed" `Quick test_router_exhaustion_is_typed;
        Alcotest.test_case "retired methods rejected" `Quick test_router_rejects_retired_methods;
        Alcotest.test_case "config validation" `Quick test_router_config_validation;
        Alcotest.test_case "hedging rescues a wedged backend" `Quick
          test_router_hedges_slow_backend;
      ] );
  ]
