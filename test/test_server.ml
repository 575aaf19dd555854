(* Tests for the serving layer: wire protocol roundtrips (damage is
   covered by test_wire.ml), the bounded job queue's backpressure, the
   content-addressed result cache, loopback request/response identity
   against the direct pipeline, queue overflow, corrupt submissions, and
   SIGTERM drain. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

let small_traces =
  lazy
    (List.map
       (fun name -> (name, Workload.data_trace (Registry.find name)))
       [ "bcnt"; "crc"; "fir" ])

(* -- wire protocol -- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let roundtrip_request request =
  with_socketpair (fun a b ->
      ok_or_fail (Protocol.write_request a request);
      match ok_or_fail (Protocol.read_request b) with
      | Some request -> request
      | None -> Alcotest.fail "request read as a clean close")

let roundtrip_response response =
  with_socketpair (fun a b ->
      ok_or_fail (Protocol.write_response a response);
      ok_or_fail (Protocol.read_response b))

let test_request_roundtrip () =
  let trace = Trace.of_list [ { Trace.addr = 11; kind = Trace.Fetch };
                              { Trace.addr = 0; kind = Trace.Read };
                              { Trace.addr = 4096; kind = Trace.Write } ] in
  (match
     roundtrip_request
       (Protocol.Submit
          {
            name = "t";
            trace = Protocol.Full trace;
            query = Protocol.Percents [ 5; 10 ];
            method_ = Protocol.Exact Analytical.Arena;
            domains = 3;
            max_level = Some 7;
            deadline = Some 1.5;
          })
   with
  | Protocol.Submit s ->
    check_int "name" 1 (String.length s.name);
    check_bool "trace" true
      (match s.trace with
      | Protocol.Full t -> Trace.to_list t = Trace.to_list trace
      | Protocol.Sketched _ -> false);
    check_bool "query" true (s.query = Protocol.Percents [ 5; 10 ]);
    check_bool "method" true (s.method_ = Protocol.Exact Analytical.Arena);
    check_int "domains" 3 s.domains;
    check_bool "max_level" true (s.max_level = Some 7);
    check_bool "deadline" true (s.deadline = Some 1.5)
  | _ -> Alcotest.fail "expected Submit");
  (match
     roundtrip_request
       (Protocol.Submit
          {
            name = "";
            trace = Protocol.Full trace;
            query = Protocol.Budget 42;
            method_ = Protocol.Approx;
            domains = 1;
            max_level = None;
            deadline = None;
          })
   with
  | Protocol.Submit s ->
    check_bool "approx" true (s.method_ = Protocol.Approx);
    check_bool "budget" true (s.query = Protocol.Budget 42);
    check_bool "no max_level" true (s.max_level = None);
    check_bool "no deadline" true (s.deadline = None)
  | _ -> Alcotest.fail "expected Submit");
  check_bool "ping" true (roundtrip_request Protocol.Ping = Protocol.Ping);
  check_bool "health" true (roundtrip_request Protocol.Health = Protocol.Health)

(* Every method byte decodes without raising: 3 (arena) and 4 (approx)
   are accepted, the retired 0-2 are a typed constraint violation, and
   everything else is a framing error. *)
let prop_method_byte_decoding =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"method byte: only 3 and 4 decode, nothing raises"
       QCheck2.Gen.(list_size (int_range 1 20) (int_bound 4095))
       (fun addrs ->
         List.for_all
           (fun method_byte ->
             let frame =
               Frames.submit ~method_byte ~declared:(List.length addrs) addrs
             in
             let decoded =
               with_socketpair (fun a b ->
                   Transport.write_all a frame;
                   Protocol.read_request b)
             in
             match (method_byte, decoded) with
             | 3, Ok (Some (Protocol.Submit { method_ = Protocol.Exact Analytical.Arena; _ }))
             | 4, Ok (Some (Protocol.Submit { method_ = Protocol.Approx; _ })) ->
               true
             | (0 | 1 | 2), Error e -> Frames.is_retired_method e
             | b, Error (Dse_error.Corrupt_binary _) -> b > 4
             | _ -> false)
           (List.init 256 Fun.id)))

let test_response_roundtrip () =
  let trace = Workload.data_trace (Registry.find "bcnt") in
  let table = Analytical_dse.run ~name:"bcnt" trace in
  (match roundtrip_response (Protocol.Result { outcome = Protocol.Table table; cache_hit = true })
   with
  | Protocol.Result { outcome = Protocol.Table t; cache_hit } ->
    check_bool "cache_hit" true cache_hit;
    check_bool "table" true (t = table)
  | _ -> Alcotest.fail "expected Table result");
  let optimal = Analytical.explore trace ~k:25 in
  (match
     roundtrip_response (Protocol.Result { outcome = Protocol.Optimal optimal; cache_hit = false })
   with
  | Protocol.Result { outcome = Protocol.Optimal r; cache_hit } ->
    check_bool "cache_hit" false cache_hit;
    check_bool "optimal" true (r = optimal)
  | _ -> Alcotest.fail "expected Optimal result");
  let errors =
    [
      Dse_error.Parse_error { file = "f"; line = 3; message = "m" };
      Dse_error.Corrupt_binary { file = "f"; offset = 9; message = "m" };
      Dse_error.Constraint_violation { context = "c"; message = "m" };
      Dse_error.Shard_failure { shard = 1; attempts = 3; message = "m" };
      Dse_error.Io_error { file = "f"; message = "m" };
      Dse_error.Queue_full { pending = 4; max_pending = 4; retry_after = 0.75 };
      Dse_error.Deadline_exceeded { elapsed = 2.25; limit = 1.5 };
      Dse_error.Worker_stalled { elapsed = 3.5; job = "loop-139264" };
      Dse_error.Resource_exhausted
        { resource = "trace references"; needed = 200_000; budget = 4096 };
      Dse_error.Backend_unavailable { node = "127.0.0.1:7701"; attempts = 3 };
      Dse_error.Stale_ring { seen = 4; expected = 5 };
    ]
  in
  List.iter
    (fun e ->
      match roundtrip_response (Protocol.Server_error e) with
      | Protocol.Server_error e' -> check_bool "error" true (e = e')
      | _ -> Alcotest.fail "expected Server_error")
    errors;
  check_bool "pong" true (roundtrip_response Protocol.Pong = Protocol.Pong)

(* -- fingerprint -- *)

let test_fingerprint () =
  let t1 = Trace.of_addresses [| 1; 2; 3 |] in
  let t2 = Trace.of_addresses [| 1; 2; 3 |] in
  let t3 = Trace.of_addresses [| 3; 2; 1 |] in
  let t4 = Trace.of_addresses [| 1; 2; 3; 4 |] in
  check_bool "deterministic" true (Trace.fingerprint t1 = Trace.fingerprint t2);
  check_bool "order-sensitive" false (Trace.fingerprint t1 = Trace.fingerprint t3);
  check_bool "length-sensitive" false (Trace.fingerprint t1 = Trace.fingerprint t4);
  (* kinds are deliberately excluded: the model depends on addresses only *)
  let reads = Trace.of_addresses ~kind:Trace.Read [| 7; 8 |] in
  let writes = Trace.of_addresses ~kind:Trace.Write [| 7; 8 |] in
  check_bool "kind-insensitive" true (Trace.fingerprint reads = Trace.fingerprint writes);
  (* the known FNV-1a offset/prime: empty trace digests only the length *)
  check_bool "empty stable" true
    (Trace.fingerprint (Trace.create ()) = Trace.fingerprint (Trace.create ()))

(* -- of_histograms: cached-histogram answers equal the full run -- *)

let test_of_histograms_identity () =
  List.iter
    (fun (name, trace) ->
      let direct = Analytical_dse.run ~name trace in
      let prepared = Analytical.prepare trace in
      let stats = Analytical.stats prepared in
      let histograms = Analytical.histograms prepared in
      let replayed = Analytical_dse.of_histograms ~name ~stats histograms in
      check_bool (name ^ " table") true (direct = replayed);
      (* a K-only re-query straight off the histograms *)
      let k = Stats.budget stats ~percent:10 in
      let direct_k = Analytical.explore trace ~k in
      let replayed_k = Optimizer.of_histograms ~k histograms in
      check_bool (name ^ " k-query") true (direct_k = replayed_k))
    (Lazy.force small_traces)

(* -- job queue -- *)

let test_job_queue () =
  let q = Job_queue.create ~max_pending:2 in
  check_bool "push 1" true (Job_queue.push q 1 = `Ok);
  check_bool "push 2" true (Job_queue.push q 2 = `Ok);
  check_bool "push 3 rejected" true (Job_queue.push q 3 = `Full 2);
  check_int "length" 2 (Job_queue.length q);
  check_bool "fifo 1" true (Job_queue.pop q = Some 1);
  check_bool "refill" true (Job_queue.push q 4 = `Ok);
  check_bool "fifo 2" true (Job_queue.pop q = Some 2);
  Job_queue.close q;
  check_bool "closed push" true (Job_queue.push q 5 = `Closed);
  check_bool "drain after close" true (Job_queue.pop q = Some 4);
  check_bool "empty after drain" true (Job_queue.pop q = None);
  check_bool "bad depth" true
    (match Job_queue.create ~max_pending:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -- loopback server fixtures -- *)

let temp_socket_path () =
  let path = Filename.temp_file "dse_server" ".sock" in
  Sys.remove path;
  path

let with_server ?(workers = 2) ?(max_pending = 16) ?(cache_entries = Result_cache.default_capacity)
    ?wal_path ?on_job_start ?(hang_timeout = 30.) ?max_job_refs ?memory_budget ?tcp f =
  let path = temp_socket_path () in
  let server =
    match
      Server.create ?on_job_start ~log:(fun _ -> ())
        { Server.socket_path = path; tcp; node_id = None; workers; max_pending;
          cache_entries; wal_path; hang_timeout; max_job_refs; memory_budget;
          peers = []; replication = 2; replication_queue = 256; anti_entropy = false }
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "server create: %s" (Dse_error.to_string e)
  in
  let runner = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join runner;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path server)

let test_loopback_identity () =
  with_server (fun socket _server ->
      List.iter
        (fun (name, trace) ->
          let payload = ok_or_fail (Client.submit ~socket ~name trace) in
          check_bool (name ^ " cold is a miss") false payload.Protocol.cache_hit;
          let direct = Analytical_dse.run ~name trace in
          match payload.Protocol.outcome with
          | Protocol.Table t -> check_bool (name ^ " identity") true (t = direct)
          | _ -> Alcotest.fail "expected a table")
        (Lazy.force small_traces))

let test_cache_hit_identity () =
  with_server (fun socket _server ->
      let name, trace = List.hd (Lazy.force small_traces) in
      let first = ok_or_fail (Client.submit ~socket ~name trace) in
      let second = ok_or_fail (Client.submit ~socket ~name trace) in
      check_bool "first misses" false first.Protocol.cache_hit;
      check_bool "second hits" true second.Protocol.cache_hit;
      check_bool "hit is identical" true (first.Protocol.outcome = second.Protocol.outcome);
      (* a K-only re-query of the solved trace: answered purely from the
         cached histograms, no recomputation *)
      let k = 25 in
      let k_payload = ok_or_fail (Client.submit ~socket ~k ~name trace) in
      check_bool "k-query hits" true k_payload.Protocol.cache_hit;
      (match k_payload.Protocol.outcome with
      | Protocol.Optimal r -> check_bool "k identity" true (r = Analytical.explore trace ~k)
      | _ -> Alcotest.fail "expected an optimizer result");
      let stats = ok_or_fail (Client.health ~socket) in
      check_int "one kernel job" 1 stats.Protocol.jobs_completed;
      check_bool "hits counted" true (stats.Protocol.cache_hits >= 2);
      check_int "one entry" 1 stats.Protocol.cache_entries)

let test_sharded_submission () =
  with_server (fun socket _server ->
      let name, trace = List.nth (Lazy.force small_traces) 1 in
      let sequential = ok_or_fail (Client.submit ~socket ~name trace) in
      (* a different shard count is a different cache key: fresh job *)
      let sharded = ok_or_fail (Client.submit ~socket ~domains:4 ~name trace) in
      check_bool "sharded cold" false sharded.Protocol.cache_hit;
      check_bool "shard invariance" true
        (sequential.Protocol.outcome = sharded.Protocol.outcome))

let test_empty_trace_rejected () =
  with_server (fun socket _server ->
      match Client.submit ~socket ~name:"empty" (Trace.create ()) with
      | Error (Dse_error.Constraint_violation _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "empty trace accepted")

(* -- queue overflow: rejected with Queue_full, never a hang -- *)

let test_queue_overflow () =
  let started = Semaphore.Counting.make 0 in
  let gate = Semaphore.Counting.make 0 in
  let hook () =
    Semaphore.Counting.release started;
    Semaphore.Counting.acquire gate
  in
  with_server ~workers:1 ~max_pending:1 ~on_job_start:hook (fun socket _server ->
      let trace_a = Trace.of_addresses (Array.init 64 (fun i -> i * 3)) in
      let trace_b = Trace.of_addresses (Array.init 64 (fun i -> i * 5)) in
      let trace_c = Trace.of_addresses (Array.init 64 (fun i -> i * 7)) in
      (* A occupies the single worker (held by the hook) *)
      let client_a = Domain.spawn (fun () -> Client.submit ~socket ~name:"a" trace_a) in
      Semaphore.Counting.acquire started;
      (* B fills the one queue slot *)
      let client_b = Domain.spawn (fun () -> Client.submit ~socket ~name:"b" trace_b) in
      let rec wait_pending tries =
        if tries = 0 then Alcotest.fail "job B never queued";
        let s = ok_or_fail (Client.health ~socket) in
        if s.Protocol.queue_depth < 1 then begin
          Unix.sleepf 0.02;
          wait_pending (tries - 1)
        end
      in
      wait_pending 250;
      (* C must be rejected immediately — not buffered, not hung *)
      (match Client.submit ~socket ~name:"c" trace_c with
      | Error (Dse_error.Queue_full { pending; max_pending; _ }) ->
        check_int "pending" 1 pending;
        check_int "max_pending" 1 max_pending
      | Error e -> Alcotest.failf "wrong error: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "overflow submission accepted");
      (* let A and B finish; both clients still get correct answers *)
      Semaphore.Counting.release gate;
      Semaphore.Counting.release gate;
      let payload_a = ok_or_fail (Domain.join client_a) in
      let payload_b = ok_or_fail (Domain.join client_b) in
      check_bool "a correct" true
        (payload_a.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"a" trace_a));
      check_bool "b correct" true
        (payload_b.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"b" trace_b));
      (* the daemon is still serving after the rejection *)
      ok_or_fail (Client.ping ~socket))

(* -- corrupt submission beside a good one -- *)

let test_corrupt_submission () =
  with_server (fun socket _server ->
      let name, trace = List.nth (Lazy.force small_traces) 2 in
      let good = Domain.spawn (fun () -> Client.submit ~socket ~name trace) in
      (* raw garbage down the wire: that client gets a structured error *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let garbage = Bytes.of_string "DSRVthis is not a frame at all" in
      ignore (Unix.write fd garbage 0 (Bytes.length garbage));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match Protocol.read_response ~peer:socket fd with
      | Ok (Protocol.Server_error (Dse_error.Corrupt_binary _)) -> ()
      | Ok (Protocol.Server_error e) ->
        Alcotest.failf "wrong error class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "corrupt frame produced a result"
      | Error e -> Alcotest.failf "no structured reply: %s" (Dse_error.to_string e));
      Unix.close fd;
      (* the concurrent good job completed correctly; daemon still up *)
      let payload = ok_or_fail (Domain.join good) in
      check_bool "good job correct" true
        (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name trace));
      ok_or_fail (Client.ping ~socket))

(* -- SIGTERM drains in-flight work before exiting -- *)

let test_sigterm_drains () =
  let started = Semaphore.Counting.make 0 in
  let gate = Semaphore.Counting.make 0 in
  let hook () =
    Semaphore.Counting.release started;
    Semaphore.Counting.acquire gate
  in
  let previous = Sys.signal Sys.sigterm Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigterm previous)
    (fun () ->
      let path = temp_socket_path () in
      let server =
        ok_or_fail
          (Server.create ~on_job_start:hook ~log:(fun _ -> ())
             { Server.socket_path = path; tcp = None; node_id = None; workers = 1;
               max_pending = 4; cache_entries = Result_cache.default_capacity;
               wal_path = None; hang_timeout = 30.; max_job_refs = None;
               memory_budget = None;
               peers = []; replication = 2; replication_queue = 256; anti_entropy = false })
      in
      Server.install_signal_handlers server;
      let runner = Domain.spawn (fun () -> Server.run server) in
      let trace = Trace.of_addresses (Array.init 48 (fun i -> i * 2)) in
      let client = Domain.spawn (fun () -> Client.submit ~socket:path ~name:"inflight" trace) in
      Semaphore.Counting.acquire started;
      (* the job is in flight; deliver a real SIGTERM to this process *)
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* give the handler a chance to run at a safe point *)
      Unix.sleepf 0.05;
      Semaphore.Counting.release gate;
      (* the daemon must answer the in-flight job, then exit cleanly *)
      let payload = ok_or_fail (Domain.join client) in
      check_bool "drained job correct" true
        (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"inflight" trace));
      Domain.join runner;
      check_bool "socket unlinked" false (Sys.file_exists path))

(* -- shard-fault recovery applies per job -- *)

let test_job_shard_recovery () =
  with_server ~workers:1 (fun socket _server ->
      (* 139264 references over 256 lines: wide enough to shard at 2
         domains (>= 2 x Arena_kernel.min_shard_refs), cheap to run *)
      let name = "wide" and trace = Synthetic.loop ~base:0 ~body:256 ~iterations:544 in
      let clean = ok_or_fail (Client.submit ~socket ~name trace) in
      Fault.set (Some { Fault.kind = Fault.Fail; shard = 1; times = 1 });
      Fun.protect
        ~finally:(fun () -> Fault.set None)
        (fun () ->
          (* domains=2 is a fresh cache key; the injected fault exercises
             the retry rung inside the worker, invisibly to the client *)
          let silence = Dse_error.(!on_degradation) in
          let degradations = Atomic.make 0 in
          Dse_error.on_degradation := (fun _ -> Atomic.incr degradations);
          Fun.protect
            ~finally:(fun () -> Dse_error.on_degradation := silence)
            (fun () ->
              let faulted = ok_or_fail (Client.submit ~socket ~domains:2 ~name trace) in
              check_bool "the injected fault fired" true (Atomic.get degradations >= 1);
              check_bool "recovered identically" true
                (clean.Protocol.outcome = faulted.Protocol.outcome))))

(* -- the connection front: one slow peer stalls nobody else -- *)

(* One probe round trip, bounded at 2 s so a stalled daemon fails the
   test instead of hanging it: the reply and its latency. *)
let timed_probe socket request =
  let started = Unix.gettimeofday () in
  let reply = Client.exchange ~timeout:2.0 socket request in
  (reply, Unix.gettimeofday () -. started)

(* Well under a second: one 0.1 s select tick plus scheduling slack on
   a shared machine. *)
let probe_bound = 0.5

let check_fast what latency =
  check_bool (Printf.sprintf "%s answered in %.3f s (< %.1f s)" what latency probe_bound) true
    (latency < probe_bound)

let submit_frame () =
  let trace = Trace.of_addresses (Array.init 256 (fun i -> i * 5)) in
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      ok_or_fail
        (Protocol.write_request w
           (Protocol.Submit
              { name = "drip"; trace = Protocol.Full trace; query = Protocol.Percents [ 5 ];
                method_ = Protocol.Exact Analytical.Arena; domains = 1; max_level = None;
                deadline = None }));
      Unix.close w;
      let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read r chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ())

(* A client drip-feeds a Submit frame at 1 byte per second. Pings and
   health probes sent meanwhile are answered at once: the trickle holds
   one connection handler, not the daemon. *)
let test_trickled_frame_stalls_no_probe () =
  with_server (fun socket _server ->
      let frame = submit_frame () in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let stop = Atomic.make false in
      let dripper =
        Domain.spawn (fun () ->
            let rec drip i =
              if i < String.length frame && not (Atomic.get stop) then begin
                ignore (Unix.write_substring fd frame i 1);
                Unix.sleepf 1.0;
                drip (i + 1)
              end
            in
            drip 0)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join dripper;
          Unix.close fd)
        (fun () ->
          (* the first byte is on the wire: a handler now waits for the
             second *)
          Unix.sleepf 0.2;
          for _ = 1 to 3 do
            (match timed_probe socket Protocol.Ping with
            | Ok Protocol.Pong, latency -> check_fast "ping" latency
            | Ok _, _ -> Alcotest.fail "ping: unexpected reply"
            | Error e, _ -> Alcotest.failf "ping: %s" (Dse_error.to_string e));
            match timed_probe socket Protocol.Health with
            | Ok (Protocol.Health_reply _), latency -> check_fast "health" latency
            | Ok _, _ -> Alcotest.fail "health: unexpected reply"
            | Error e, _ -> Alcotest.failf "health: %s" (Dse_error.to_string e)
          done))

let free_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> Alcotest.fail "unexpected sockname")

(* A TCP peer that connected, sent the start of a frame and went silent
   without closing (its host vanished). A ring update sent meanwhile is
   adopted and answered at once. *)
let test_half_open_peer_never_delays_ring_update () =
  let tcp = Printf.sprintf "127.0.0.1:%d" (free_port ()) in
  with_server ~tcp (fun socket _server ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (match Transport.parse tcp with
          | Transport.Tcp { port; _ } ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
          | Transport.Unix_socket _ -> Alcotest.fail "expected a TCP address");
          ignore (Unix.write_substring fd "DSRV" 0 4);
          Unix.sleepf 0.2;
          let config = { Protocol.ring_version = 1; nodes = [ tcp ]; replication = 1 } in
          List.iter
            (fun via ->
              match timed_probe via (Protocol.Ring_update { config }) with
              | Ok (Protocol.Ring_reply { config = adopted; _ }), latency ->
                check_fast ("ring update via " ^ via) latency;
                check_int "adopted" 1 adopted.Protocol.ring_version
              | Ok _, _ -> Alcotest.fail "ring update: unexpected reply"
              | Error e, _ -> Alcotest.failf "ring update: %s" (Dse_error.to_string e))
            [ tcp; socket ]))

let suites =
  [
    ( "server:protocol",
      [
        Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        prop_method_byte_decoding;
        Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
      ] );
    ( "server:components",
      [
        Alcotest.test_case "trace fingerprint" `Quick test_fingerprint;
        Alcotest.test_case "of_histograms identity" `Quick test_of_histograms_identity;
        Alcotest.test_case "job queue backpressure" `Quick test_job_queue;
      ] );
    ( "server:loopback",
      [
        Alcotest.test_case "identity vs direct run" `Quick test_loopback_identity;
        Alcotest.test_case "cache hit identity" `Quick test_cache_hit_identity;
        Alcotest.test_case "sharded submission" `Quick test_sharded_submission;
        Alcotest.test_case "empty trace rejected" `Quick test_empty_trace_rejected;
        Alcotest.test_case "queue overflow" `Quick test_queue_overflow;
        Alcotest.test_case "corrupt submission" `Quick test_corrupt_submission;
        Alcotest.test_case "sigterm drains" `Quick test_sigterm_drains;
        Alcotest.test_case "shard recovery per job" `Quick test_job_shard_recovery;
      ] );
    ( "server:front",
      [
        Alcotest.test_case "a trickled frame stalls no probe" `Quick
          test_trickled_frame_stalls_no_probe;
        Alcotest.test_case "a half-open peer never delays a ring update" `Quick
          test_half_open_peer_never_delays_ring_update;
      ] );
  ]
