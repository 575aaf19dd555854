(* Tests for the online-membership plane: the epoch fence on the v7
   cluster verbs (a property test — every cross-version Replicate /
   Cache_query is rejected with Stale_ring and never silently applied),
   ring-config adoption (strictly-newer wins, idempotent otherwise),
   replica GC on a replication shrink, graceful drain under
   concurrent submissions — no warm entry lost, zero kernel re-runs on
   the drained range — a join whose newcomer adopts the ring before its
   neighbour does, and a drain whose leaver already adopted the
   post-drain ring. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

let temp_socket_path () =
  let path = Filename.temp_file "dse_member" ".sock" in
  Sys.remove path;
  path

(* Replica GC fires a grace delay (1 s) after adoption, so assertions
   on it poll longer than the usual propagation waits. *)
let eventually ?(tries = 400) what f =
  let rec go tries =
    if f () then ()
    else if tries = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go (tries - 1)
    end
  in
  go tries

let server_config ?(workers = 2) ?wal_path ?(peers = []) ?(replication = 2)
    ?(anti_entropy = false) socket =
  { Server.socket_path = socket; tcp = None; node_id = None; workers; max_pending = 16;
    cache_entries = Result_cache.default_capacity; wal_path; hang_timeout = 30.;
    max_job_refs = None; memory_budget = None;
    peers; replication; replication_queue = 256; anti_entropy }

let start_server ?on_job_start ?(log = fun _ -> ()) config =
  let server =
    match Server.create ?on_job_start ~log config with
    | Ok s -> s
    | Error e -> Alcotest.failf "server create: %s" (Dse_error.to_string e)
  in
  let runner = Domain.spawn (fun () -> Server.run server) in
  (server, runner)

let stop_server (server, runner) =
  Server.stop server;
  Domain.join runner

let trace_of_seed seed = Synthetic.zipfian ~seed:(seed + 71) ~span:4096 ~skew:1.1 ~length:1200

let request socket r = ok_or_fail (Client.exchange socket r)

let digest_keys socket =
  match request socket (Protocol.Cache_query { ring_version = 0; keys = [] }) with
  | Protocol.Cache_reply { keys; _ } -> keys
  | _ -> Alcotest.fail "expected Cache_reply"

(* -- the epoch fence, as a property -- *)

(* Whatever version a peer claims — as long as it is non-zero and not
   ours — both fenced verbs must answer Stale_ring carrying exactly the
   two versions, and must not have touched the cache. The receiver sits
   at v1 (a one-peer cluster); the record pushed is real warm state
   fetched from a standalone donor, so a fence bug would actually
   store it. *)
let test_stale_fence_property () =
  let a = temp_socket_path () and b = temp_socket_path () in
  let donor = start_server (server_config a) in
  let receiver = start_server (server_config ~peers:[ a ] b) in
  Fun.protect
    ~finally:(fun () ->
      stop_server donor;
      stop_server receiver;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) [ a; b ])
    (fun () ->
      let trace = trace_of_seed 1 in
      ignore (ok_or_fail (Client.submit ~socket:a ~name:"donor" trace));
      let key =
        match digest_keys a with
        | [ key ] -> key
        | keys -> Alcotest.failf "expected one donor key, got %d" (List.length keys)
      in
      let record =
        match request a (Protocol.Cache_query { ring_version = 0; keys = [ key ] }) with
        | Protocol.Cache_reply { records = [ record ]; _ } -> record
        | _ -> Alcotest.fail "expected the donor's record"
      in
      let fenced seen r =
        match request b r with
        | Protocol.Server_error (Dse_error.Stale_ring { seen = s; expected }) ->
          s = seen && expected = 1
        | _ -> false
      in
      QCheck2.Test.check_exn
        (QCheck2.Test.make ~count:40 ~name:"cross-version verbs are fenced"
           QCheck2.Gen.(pair (int_range 2 1_000_000) bool)
           (fun (seen, use_replicate) ->
             let rejected =
               if use_replicate then
                 fenced seen (Protocol.Replicate { ring_version = seen; records = [ record ] })
               else fenced seen (Protocol.Cache_query { ring_version = seen; keys = [ key ] })
             in
             let h = ok_or_fail (Client.health ~socket:b) in
             rejected && h.Protocol.cache_entries = 0 && h.Protocol.replicated_in = 0));
      (* control: the matching epoch (and the unfenced 0) are accepted *)
      (match request b (Protocol.Replicate { ring_version = 1; records = [ record ] }) with
      | Protocol.Replicate_ack { stored } -> check_int "matching epoch stores" 1 stored
      | _ -> Alcotest.fail "expected Replicate_ack");
      (match request b (Protocol.Cache_query { ring_version = 0; keys = [ key ] }) with
      | Protocol.Cache_reply { records; _ } ->
        check_int "unfenced query answered" 1 (List.length records)
      | _ -> Alcotest.fail "expected Cache_reply"))

(* -- adoption rules -- *)

let test_adoption_strictly_newer () =
  let a = temp_socket_path () and b = temp_socket_path () in
  let server = start_server (server_config ~peers:[ b ] a) in
  Fun.protect
    ~finally:(fun () ->
      stop_server server;
      if Sys.file_exists a then Sys.remove a)
    (fun () ->
      let status () =
        match request a Protocol.Ring_status with
        | Protocol.Ring_reply { config; draining; _ } -> (config, draining)
        | _ -> Alcotest.fail "expected Ring_reply"
      in
      let v1, draining = status () in
      check_int "a peered daemon starts versioned" 1 v1.Protocol.ring_version;
      check_bool "not draining" false draining;
      check_int "initial nodes" 2 (List.length v1.Protocol.nodes);
      (* an equal-or-older config changes nothing *)
      let stale = { v1 with Protocol.ring_version = 1; nodes = [ a ] } in
      (match request a (Protocol.Ring_update { config = stale }) with
      | Protocol.Ring_reply { config; _ } ->
        check_int "equal version not adopted" 2 (List.length config.Protocol.nodes)
      | _ -> Alcotest.fail "expected Ring_reply");
      (* a strictly newer one is adopted verbatim *)
      let c = temp_socket_path () in
      let newer =
        { Protocol.ring_version = 5; nodes = [ a; b; c ]; replication = 3 }
      in
      (match request a (Protocol.Ring_update { config = newer }) with
      | Protocol.Ring_reply { config; _ } ->
        check_int "newer version adopted" 5 config.Protocol.ring_version;
        check_int "nodes adopted" 3 (List.length config.Protocol.nodes);
        check_int "replication adopted" 3 config.Protocol.replication
      | _ -> Alcotest.fail "expected Ring_reply");
      (* a malformed config is refused, not adopted *)
      (match
         Client.exchange a
           (Protocol.Ring_update
              { config = { Protocol.ring_version = 9; nodes = [ a; a ]; replication = 1 } })
       with
      | Ok (Protocol.Server_error (Dse_error.Constraint_violation _)) -> ()
      | _ -> Alcotest.fail "expected a constraint violation for duplicate nodes");
      let after, _ = status () in
      check_int "malformed config left the ring alone" 5 after.Protocol.ring_version;
      let h = ok_or_fail (Client.health ~socket:a) in
      check_int "health reports the epoch" 5 h.Protocol.ring_version)

(* -- replica GC on a replication shrink -- *)

let test_replica_gc_on_shrink () =
  let sockets = List.init 2 (fun _ -> temp_socket_path ()) in
  let a, b = (List.nth sockets 0, List.nth sockets 1) in
  let servers =
    List.map
      (fun s ->
        let peers = List.filter (fun p -> p <> s) sockets in
        start_server (server_config ~peers ~replication:2 s))
      sockets
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter stop_server servers;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) sockets)
    (fun () ->
      (* with R=2 over two nodes, every result lives on both *)
      let n = 6 in
      List.iter
        (fun i ->
          ignore
            (ok_or_fail
               (Client.submit ~socket:a ~name:(Printf.sprintf "gc%d" i) (trace_of_seed (100 + i)))))
        (List.init n Fun.id);
      eventually "full replication" (fun () ->
          List.length (digest_keys a) = n && List.length (digest_keys b) = n);
      (* shrink to R=1: each node owes only the keys it owns *)
      let shrunk = { Protocol.ring_version = 2; nodes = sockets; replication = 1 } in
      check_bool "both adopt the shrink" true (Admin.push_config shrunk sockets = []);
      let ring = Ring.create sockets in
      let owner key = Ring.route ring key.Result_cache.fingerprint in
      eventually ~tries:600 "replica GC after the grace delay" (fun () ->
          List.length (digest_keys a) + List.length (digest_keys b) = n);
      List.iter
        (fun s ->
          List.iter
            (fun key -> check_bool "each survivor is owned" true (owner key = s))
            (digest_keys s))
        sockets;
      let ha = ok_or_fail (Client.health ~socket:a) in
      let hb = ok_or_fail (Client.health ~socket:b) in
      check_int "every extra copy was GC'd, nothing else" n
        (ha.Protocol.replica_gc_dropped + hb.Protocol.replica_gc_dropped);
      check_int "epochs agree" 2 ha.Protocol.ring_version;
      check_int "epochs agree" 2 hb.Protocol.ring_version)

(* -- graceful drain under concurrent submissions -- *)

let test_drain_under_load () =
  let sockets = List.init 2 (fun _ -> temp_socket_path ()) in
  let a, b = (List.nth sockets 0, List.nth sockets 1) in
  let servers =
    List.map
      (fun s ->
        let peers = List.filter (fun p -> p <> s) sockets in
        start_server (server_config ~peers ~replication:2 s))
      sockets
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter stop_server servers;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) sockets)
    (fun () ->
      (* warm the fleet through the node about to leave *)
      let warm = List.init 5 (fun i -> (Printf.sprintf "warm%d" i, trace_of_seed (200 + i))) in
      let expected =
        List.map
          (fun (name, trace) -> (name, Protocol.Table (Analytical_dse.run ~name trace)))
          warm
      in
      List.iter
        (fun (name, trace) -> ignore (ok_or_fail (Client.submit ~socket:a ~name trace)))
        warm;
      eventually "warm replication" (fun () -> List.length (digest_keys b) = 5);
      (* drain A while fresh submissions keep landing on the survivor *)
      let load =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                Client.submit ~socket:b ~retries:4 ~name:(Printf.sprintf "live%d" i)
                  (trace_of_seed (300 + i))))
      in
      let config, pushed, failed = ok_or_fail (Admin.drain ~contacts:sockets a) in
      check_bool "drain pushed the warm range" true (pushed >= 5);
      check_bool "no push failures" true (failed = []);
      check_int "post-drain ring excludes the leaver" 1 (List.length config.Protocol.nodes);
      List.iter (fun d -> ignore (ok_or_fail (Domain.join d))) load;
      (* the drained node reports its state while it still runs *)
      let ha = ok_or_fail (Client.health ~socket:a) in
      check_bool "drained node is shedding" true ha.Protocol.draining;
      check_int "drained node adopted the post-drain epoch" config.Protocol.ring_version
        ha.Protocol.ring_version;
      (* no warm entry was lost: every pre-drain answer repeats warm
         from the survivor, bit-identical, with zero kernel re-runs *)
      let jobs () = (ok_or_fail (Client.health ~socket:b)).Protocol.jobs_completed in
      let before = jobs () in
      List.iter
        (fun (name, trace) ->
          let payload = ok_or_fail (Client.submit ~socket:b ~name trace) in
          check_bool "repeat is warm" true payload.Protocol.cache_hit;
          check_bool "repeat is bit-identical" true
            (payload.Protocol.outcome = List.assoc name expected))
        warm;
      check_int "zero kernel re-runs on the drained range" before (jobs ());
      (* replica GC empties the node that left the ring *)
      eventually ~tries:600 "the drained node to GC its cache" (fun () ->
          (ok_or_fail (Client.health ~socket:a)).Protocol.cache_entries = 0))

(* -- a join whose newcomer adopts the ring first -- *)

let mentions msg fragment =
  let n = String.length fragment in
  let rec at i = i + n <= String.length msg && (String.sub msg i n = fragment || at (i + 1)) in
  at 0

(* [Admin.join] pushes the new ring to the newcomer first, so the
   newcomer's anti-entropy can query a neighbour that is still at the
   old version, whose fence answers Stale_ring. Held deterministically
   here: the incumbent stays at v1 until the newcomer's digest query has
   been fenced (its log says so), and only then adopts v2. The newcomer
   must still pull its whole range. *)
let test_join_before_neighbour_adopts () =
  let p = temp_socket_path () and n = temp_socket_path () in
  let fenced = Atomic.make false in
  let log msg =
    if mentions msg "is behind" || mentions msg "unexpected digest reply" then
      Atomic.set fenced true
  in
  let incumbent = start_server (server_config p) in
  let newcomer = start_server ~log (server_config ~anti_entropy:true n) in
  Fun.protect
    ~finally:(fun () ->
      stop_server incumbent;
      stop_server newcomer;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) [ p; n ])
    (fun () ->
      let ring nodes version =
        Protocol.Ring_update { config = { Protocol.ring_version = version; nodes; replication = 2 } }
      in
      ignore (request p (ring [ p ] 1));
      List.iter
        (fun seed ->
          ignore
            (ok_or_fail
               (Client.submit ~socket:p ~name:(Printf.sprintf "j%d" seed) (trace_of_seed seed))))
        [ 1; 2; 3; 4 ];
      let held = digest_keys p in
      check_int "the incumbent holds the warm range" 4 (List.length held);
      (* v2 reaches the newcomer only; with two nodes and replication 2
         it participates in every key *)
      ignore (request n (ring [ p; n ] 2));
      eventually "the newcomer's digest query to be fenced" (fun () -> Atomic.get fenced);
      ignore (request p (ring [ p; n ] 2));
      eventually "the newcomer to pull its range" (fun () ->
          let have = digest_keys n in
          List.for_all (fun key -> List.mem key have) held))

(* A drain whose post-drain ring the leaver already holds: one of its
   replication pushes was fenced by a survivor that had adopted the new
   ring, and the refetch adopted it on the leaver too, before the Drain
   arrived. The handoff is still owed, not refused as stale. *)
let test_drain_after_leaver_adopted () =
  let a = temp_socket_path () and b = temp_socket_path () in
  let leaver = start_server (server_config ~peers:[ b ] a) in
  let survivor = start_server (server_config ~peers:[ a ] b) in
  Fun.protect
    ~finally:(fun () ->
      stop_server leaver;
      stop_server survivor;
      List.iter (fun s -> if Sys.file_exists s then Sys.remove s) [ a; b ])
    (fun () ->
      List.iter
        (fun seed ->
          ignore
            (ok_or_fail
               (Client.submit ~socket:a ~name:(Printf.sprintf "d%d" seed) (trace_of_seed seed))))
        [ 11; 12; 13 ];
      let post = { Protocol.ring_version = 2; nodes = [ b ]; replication = 2 } in
      List.iter (fun s -> ignore (request s (Protocol.Ring_update { config = post }))) [ b; a ];
      match request a (Protocol.Drain { config = post }) with
      | Protocol.Ring_reply { draining; pushed; config } ->
        check_bool "the leaver drained" true draining;
        check_int "every warm entry handed off" 3 pushed;
        check_int "at the post-drain version" 2 config.Protocol.ring_version
      | Protocol.Server_error e -> Alcotest.failf "drain refused: %s" (Dse_error.to_string e)
      | _ -> Alcotest.fail "expected Ring_reply")

let suites =
  [
    ( "membership",
      [
        Alcotest.test_case "stale fence property" `Slow test_stale_fence_property;
        Alcotest.test_case "adoption strictly newer" `Quick test_adoption_strictly_newer;
        Alcotest.test_case "replica GC on shrink" `Slow test_replica_gc_on_shrink;
        Alcotest.test_case "drain under load" `Slow test_drain_under_load;
        Alcotest.test_case "join before the neighbour adopts" `Quick
          test_join_before_neighbour_adopts;
        Alcotest.test_case "drain after the leaver adopted" `Quick test_drain_after_leaver_adopted;
      ] );
  ]
