(* Tests for the self-healing serving features: cooperative deadlines
   through the kernels, the single-flight inflight table, the LRU bound
   on the result cache, the crash-safe WAL (torn tails, bit flips,
   compaction, warm restart), client retry with a wall-clock cap, and
   the quiet handling of liveness probes and stalled peers. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

let expect_deadline label = function
  | Error (Dse_error.Deadline_exceeded { elapsed; limit }) ->
    check_bool (label ^ ": elapsed >= limit") true (elapsed >= limit)
  | Error e -> Alcotest.failf "%s: wrong error class: %s" label (Dse_error.to_string e)
  | Ok _ -> Alcotest.failf "%s: expired deadline produced a result" label

let raises_deadline label f =
  match f () with
  | _ -> Alcotest.failf "%s: expired token did not stop the kernel" label
  | exception Dse_error.Error (Dse_error.Deadline_exceeded _) -> ()
  | exception e -> Alcotest.failf "%s: wrong exception: %s" label (Printexc.to_string e)

(* -- cancel tokens -- *)

let expired_token () =
  let cancel = Cancel.after 3600. in
  Cancel.cancel cancel;
  cancel

let test_cancel_token () =
  Cancel.check Cancel.none;
  check_bool "none never expires" false (Cancel.expired Cancel.none);
  check_bool "none has no limit" true (Cancel.limit Cancel.none = None);
  let live = Cancel.after 3600. in
  Cancel.check live;
  check_bool "live" false (Cancel.expired live);
  check_bool "limit echoed" true (Cancel.limit live = Some 3600.);
  let cancel = expired_token () in
  check_bool "cancelled" true (Cancel.expired cancel);
  (match Cancel.check cancel with
  | () -> Alcotest.fail "cancelled token passed check"
  | exception Dse_error.Error (Dse_error.Deadline_exceeded { limit; _ }) ->
    check_bool "limit reported" true (limit = 3600.));
  (* a real expiry, not just an explicit cancel *)
  let tiny = Cancel.after 1e-6 in
  Unix.sleepf 0.002;
  check_bool "tiny expired" true (Cancel.expired tiny);
  List.iter
    (fun bad ->
      match Cancel.after bad with
      | _ -> Alcotest.failf "accepted deadline %f" bad
      | exception Invalid_argument _ -> ())
    [ 0.; -1.; infinity; nan ];
  check_int "exit code 7" 7
    (Dse_error.exit_code (Dse_error.Deadline_exceeded { elapsed = 1.; limit = 0.5 }))

let test_kernels_honour_cancellation () =
  let trace = Synthetic.loop ~base:0 ~body:512 ~iterations:8 in
  let stripped = Oracle.stripped trace in
  let oracle = Oracle.histograms stripped ~max_level:(Strip.address_bits stripped) in
  raises_deadline "arena" (fun () -> Analytical.prepare ~cancel:(expired_token ()) trace);
  (* an un-expired token changes nothing *)
  let watched = Analytical.histograms (Analytical.prepare ~cancel:(Cancel.after 3600.) trace) in
  check_bool "arena: identical to the oracle under a live token" true (watched = oracle);
  (* the stream a worker runs polls the same token *)
  let records = Test_server.records_of trace in
  raises_deadline "stream" (fun () ->
      Analytical.stream_records ~cancel:(expired_token ()) records);
  check_bool "stream: identical to the oracle under a live token" true
    (snd (Analytical.stream_records ~cancel:(Cancel.after 3600.) records) = oracle)

(* -- LRU result cache -- *)

let key fp = { Result_cache.fingerprint = Int64.of_int fp; method_tag = 0; domains = 1; max_level = -1 }

let entry seed =
  Result_cache.Exact
    {
      stats = { Stats.n = 10 * seed; n_unique = seed; address_bits = 3; max_misses = 9 };
      histograms = [| [| seed |]; [| seed; seed + 1 |] |];
    }

let test_cache_lru_bound () =
  let cache = Result_cache.create ~capacity:2 () in
  Result_cache.store cache (key 1) (entry 1);
  Result_cache.store cache (key 2) (entry 2);
  (* touching key 1 makes key 2 the eviction victim *)
  check_bool "hit 1" true (Result_cache.find cache (key 1) = Some (entry 1));
  Result_cache.store cache (key 3) (entry 3);
  let c = Result_cache.counters cache in
  check_int "entries bounded" 2 c.Result_cache.entries;
  check_int "one eviction" 1 c.Result_cache.evictions;
  check_bool "lru evicted" true (Result_cache.find cache (key 2) = None);
  check_bool "recent survived" true (Result_cache.find cache (key 1) = Some (entry 1));
  check_bool "new present" true (Result_cache.find cache (key 3) = Some (entry 3));
  (* snapshot is oldest-first: replaying it through store reproduces
     contents and recency *)
  let snap = Result_cache.snapshot cache in
  check_int "snapshot size" 2 (List.length snap);
  let replayed = Result_cache.create ~capacity:2 () in
  List.iter (fun (k, e) -> Result_cache.store replayed k e) snap;
  check_bool "snapshot order preserves recency" true
    (Result_cache.snapshot replayed = snap);
  check_bool "capacity validated" true
    (match Result_cache.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -- inflight table -- *)

let test_inflight () =
  let t = Inflight.create () in
  let dummy_fd = Unix.stdin in
  let waiter name = { Inflight.fd = dummy_fd; name; query = Protocol.Budget 1 } in
  check_bool "leader" true (Inflight.begin_ t (key 1) (waiter "a") = `Leader);
  check_bool "attached" true (Inflight.begin_ t (key 1) (waiter "b") = `Attached);
  check_bool "attached 2" true (Inflight.begin_ t (key 1) (waiter "c") = `Attached);
  (* a different key is its own flight *)
  check_bool "other key leads" true (Inflight.begin_ t (key 2) (waiter "d") = `Leader);
  check_int "coalesced" 2 (Inflight.coalesced t);
  let waiters = Inflight.complete t (key 1) in
  check_bool "attach order" true (List.map (fun w -> w.Inflight.name) waiters = [ "b"; "c" ]);
  check_bool "flight gone" true (Inflight.complete t (key 1) = []);
  check_bool "next leader" true (Inflight.begin_ t (key 1) (waiter "e") = `Leader)

(* -- WAL -- *)

let temp_wal () =
  let path = Filename.temp_file "dse_wal" ".log" in
  Sys.remove path;
  path

let with_wal ?(capacity = 64) ?compact_factor path f =
  let store = Hashtbl.create 8 in
  let wal =
    ok_or_fail
      (Wal.open_ ?compact_factor ~capacity
         ~snapshot:(fun () -> Hashtbl.fold (fun k e acc -> (k, e) :: acc) store [])
         path)
  in
  Fun.protect ~finally:(fun () -> Wal.close wal) (fun () -> f wal store)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* The on-disk record bytes are a format: logs written by earlier
   builds must replay, and replicas exchange records verbatim. These
   bytes were produced by the buffer-staged encoder the single-buffer
   one replaced. The small record covers multi-byte varints, a
   fingerprint with its top bit set, the unbounded max_level and empty
   histograms; the large one (14 KB) a multi-byte payload length. *)
let test_wal_golden_records () =
  let hex s =
    String.to_seq s |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) |> List.of_seq
    |> String.concat ""
  in
  let encode key entry =
    match Wal.encode_record key entry with
    | Some record -> record
    | None -> Alcotest.fail "exact entry not encoded"
  in
  let small_key =
    { Result_cache.fingerprint = 0x8123456789ABCDEFL; method_tag = 3; domains = 2; max_level = -1 }
  in
  let small_entry =
    Result_cache.Exact
      {
        stats = { Stats.n = 300; n_unique = 129; address_bits = 17; max_misses = 0 };
        histograms = [| [||]; [| 0 |]; [| 0; 1; 200; 16384 |] |];
      }
  in
  let small = encode small_key small_entry in
  Alcotest.(check string)
    "small record bytes"
    "44534557011defcdab8967452381030200ac028101110003000100040001c801808001cf3b8ec5" (hex small);
  let big_key = { Result_cache.fingerprint = 42L; method_tag = 3; domains = 1; max_level = 20 } in
  let big_entry =
    Result_cache.Exact
      {
        stats = { Stats.n = 25_000; n_unique = 2024; address_bits = 14; max_misses = 17_000 };
        histograms =
          Array.init 15 (fun l ->
              Array.init (40 * (l + 1)) (fun c -> ((c * 7919) + (l * 104729)) land 0xFFFFF));
      }
  in
  let big = encode big_key big_entry in
  check_int "large record length" 14381 (String.length big);
  Alcotest.(check string)
    "large record digest" "a898ce621a5ddfc67be55c60bd67642e" (Digest.to_hex (Digest.string big));
  check_bool "both decode back" true
    (Wal.decode_record small = Some (small_key, small_entry)
    && Wal.decode_record big = Some (big_key, big_entry))

(* A replay's entries are records; decode them to compare. *)
let decoded (r : Wal.replay) =
  List.map
    (fun (k, e) ->
      match e with Result_cache.Packed record -> (k, Result_cache.decode record) | _ -> (k, e))
    r.Wal.entries

let test_wal_roundtrip () =
  let path = temp_wal () in
  check_bool "missing file is empty" true ((ok_or_fail (Wal.replay path)).Wal.entries = []);
  with_wal path (fun wal _ ->
      List.iter (fun i -> ok_or_fail (Wal.append wal (key i) (entry i))) [ 1; 2; 3 ]);
  let r = ok_or_fail (Wal.replay path) in
  check_int "intact" 3 r.Wal.intact;
  check_int "no damage" 0 r.Wal.damaged;
  check_bool "no truncation" false r.Wal.truncated;
  check_bool "append order" true (decoded r = [ (key 1, entry 1); (key 2, entry 2); (key 3, entry 3) ]);
  Sys.remove path

let test_wal_torn_tail () =
  let path = temp_wal () in
  with_wal path (fun wal _ ->
      List.iter (fun i -> ok_or_fail (Wal.append wal (key i) (entry i))) [ 1; 2; 3 ]);
  (* kill -9 mid-append: the final record is torn a few bytes short *)
  let data = read_file path in
  write_file path (String.sub data 0 (String.length data - 5));
  let r = ok_or_fail (Wal.replay path) in
  check_int "two intact" 2 r.Wal.intact;
  check_bool "truncated flagged" true r.Wal.truncated;
  check_bool "intact prefix" true (decoded r = [ (key 1, entry 1); (key 2, entry 2) ]);
  Sys.remove path

let test_wal_bitflip () =
  let path = temp_wal () in
  with_wal path (fun wal _ ->
      List.iter (fun i -> ok_or_fail (Wal.append wal (key i) (entry i))) [ 1; 2; 3 ]);
  (* flip one payload byte inside the middle record: its CRC fails, the
     replay resyncs on the next magic, and both neighbours survive *)
  let data = read_file path in
  let record_len = String.length data / 3 in
  let flip_at = record_len + (record_len / 2) in
  let flipped = Bytes.of_string data in
  Bytes.set flipped flip_at (Char.chr (Char.code (Bytes.get flipped flip_at) lxor 0x40));
  write_file path (Bytes.to_string flipped);
  let r = ok_or_fail (Wal.replay path) in
  check_int "two intact" 2 r.Wal.intact;
  check_bool "damage counted" true (r.Wal.damaged >= 1);
  check_bool "neighbours recovered" true
    (decoded r = [ (key 1, entry 1); (key 3, entry 3) ]);
  Sys.remove path

let test_wal_compaction () =
  let path = temp_wal () in
  with_wal ~capacity:2 ~compact_factor:2 path (fun wal store ->
      (* 4 appends of the same key reach the 2*2 trigger; the log is
         rewritten as the live snapshot — one record *)
      Hashtbl.replace store (key 9) (entry 4);
      List.iter (fun i -> ok_or_fail (Wal.append wal (key 9) (entry i))) [ 1; 2; 3; 4 ];
      check_int "counter reset" 0 (Wal.appended_since_compact wal);
      let r = ok_or_fail (Wal.replay path) in
      check_int "compacted to the snapshot" 1 r.Wal.intact;
      check_bool "live value" true (decoded r = [ (key 9, entry 4) ]);
      (* the log keeps accepting appends after compaction *)
      ok_or_fail (Wal.append wal (key 10) (entry 10));
      check_int "post-compaction append" 1 (Wal.appended_since_compact wal);
      check_int "two records" 2 (ok_or_fail (Wal.replay path)).Wal.intact);
  Sys.remove path

(* -- protocol edges: liveness probes and stalled peers -- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_zero_byte_close () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Protocol.read_request b with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "phantom request from a closed peer"
      | Error e -> Alcotest.failf "probe treated as damage: %s" (Dse_error.to_string e));
  (* bytes followed by a close is still damage, not a probe *)
  with_socketpair (fun a b ->
      ignore (Unix.write a (Bytes.of_string "DS") 0 2);
      Unix.close a;
      match Protocol.read_request b with
      | Error (Dse_error.Corrupt_binary _) -> ()
      | Error e -> Alcotest.failf "wrong class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "truncated frame accepted")

let test_receive_timeout_typed () =
  with_socketpair (fun _a b ->
      (* the peer never sends: SO_RCVTIMEO expires as EAGAIN, which must
         surface as the recognisable typed timeout, not a raw exception *)
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.05;
      match Protocol.read_request b with
      | Error e ->
        check_bool "recognised by the predicate" true (Protocol.timed_out e);
        (match e with
        | Dse_error.Io_error _ -> ()
        | _ -> Alcotest.failf "wrong class: %s" (Dse_error.to_string e))
      | Ok _ -> Alcotest.fail "read succeeded with a silent peer");
  check_bool "predicate is specific" false
    (Protocol.timed_out (Dse_error.Io_error { file = "f"; message = "connection refused" }))

(* -- loopback fixtures -- *)

let temp_socket_path () =
  let path = Filename.temp_file "dse_selfheal" ".sock" in
  Sys.remove path;
  path

let with_server ?(workers = 2) ?(max_pending = 16) ?(cache_entries = Result_cache.default_capacity)
    ?wal_path ?on_job_start ?(log = fun _ -> ()) f =
  let path = temp_socket_path () in
  let server =
    match
      Server.create ?on_job_start ~log
        { Server.socket_path = path; tcp = None; node_id = None; workers; max_pending;
          cache_entries; wal_path; hang_timeout = 30.; max_job_refs = None;
          memory_budget = None;
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

(* heavy enough that a millisecond deadline always expires at a poll
   point inside the kernel, cheap enough to prepare *)
let heavy_trace = lazy (Synthetic.loop ~base:0 ~body:16384 ~iterations:8)

let small_trace = lazy (Workload.data_trace (Registry.find "bcnt"))

let test_deadline_expiry_frees_worker () =
  with_server ~workers:1 (fun socket _server ->
      expect_deadline "submit"
        (Client.submit ~socket ~deadline:0.001 ~name:"doomed" (Lazy.force heavy_trace));
      (* the same worker serves the next job normally *)
      let trace = Lazy.force small_trace in
      let payload = ok_or_fail (Client.submit ~socket ~name:"bcnt" trace) in
      check_bool "worker lives on" true
        (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"bcnt" trace));
      (* an expired job is not cached: resubmitting without a deadline
         computes and succeeds *)
      let healed =
        ok_or_fail (Client.submit ~socket ~name:"healed" (Lazy.force heavy_trace))
      in
      check_bool "no poisoned cache entry" false healed.Protocol.cache_hit;
      (* a generous deadline changes nothing *)
      let relaxed =
        ok_or_fail (Client.submit ~socket ~deadline:3600. ~name:"healed" (Lazy.force heavy_trace))
      in
      check_bool "generous deadline hits cache" true relaxed.Protocol.cache_hit;
      check_bool "identical" true (healed.Protocol.outcome = relaxed.Protocol.outcome))

let test_deadline_validation () =
  with_server (fun socket _server ->
      match Client.submit ~socket ~deadline:(-1.) ~name:"bad" (Lazy.force small_trace) with
      | Error (Dse_error.Constraint_violation _) -> ()
      | Error e -> Alcotest.failf "wrong class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "negative deadline accepted")

(* -- single flight -- *)

let test_single_flight_coalesces () =
  let kernel_runs = Atomic.make 0 in
  let started = Semaphore.Counting.make 0 in
  let gate = Semaphore.Counting.make 0 in
  let hook () =
    Atomic.incr kernel_runs;
    Semaphore.Counting.release started;
    Semaphore.Counting.acquire gate
  in
  with_server ~workers:1 ~on_job_start:hook (fun socket _server ->
      let trace = Lazy.force small_trace in
      let clients =
        List.init 8 (fun i ->
            let d = Domain.spawn (fun () -> Client.submit ~socket ~name:"burst" trace) in
            (* the first submission must become leader before the rest
               arrive, otherwise a duplicate could win the race to the
               queue *)
            if i = 0 then Semaphore.Counting.acquire started;
            d)
      in
      (* with the one worker gated, the 7 duplicates can only attach;
         wait until the daemon has seen them all *)
      let rec wait_coalesced tries =
        if tries = 0 then Alcotest.fail "duplicates never coalesced";
        let s = ok_or_fail (Client.health ~socket) in
        if s.Protocol.coalesced_hits < 7 then begin
          Unix.sleepf 0.02;
          wait_coalesced (tries - 1)
        end
      in
      wait_coalesced 250;
      Semaphore.Counting.release gate;
      let payloads = List.map (fun d -> ok_or_fail (Domain.join d)) clients in
      check_int "kernel ran exactly once" 1 (Atomic.get kernel_runs);
      let reference = Analytical_dse.run ~name:"burst" trace in
      List.iter
        (fun (p : Protocol.result_payload) ->
          check_bool "every client answered identically" true
            (p.Protocol.outcome = Protocol.Table reference))
        payloads;
      let s = ok_or_fail (Client.health ~socket) in
      check_int "coalesced counted" 7 s.Protocol.coalesced_hits;
      check_int "one job completed" 1 s.Protocol.jobs_completed)

(* -- crash-safe persistence -- *)

let test_restart_answers_warm () =
  let wal = temp_wal () in
  let trace = Lazy.force small_trace in
  let cold =
    with_server ~wal_path:wal (fun socket _server ->
        ok_or_fail (Client.submit ~socket ~name:"bcnt" trace))
  in
  check_bool "cold missed" false cold.Protocol.cache_hit;
  (* every append hits the log before the reply goes out, so the WAL's
     contents at any kill -9 point include every answered job; a fresh
     daemon over the same WAL answers warm and byte-identically *)
  let warm =
    with_server ~wal_path:wal (fun socket _server ->
        ok_or_fail (Client.submit ~socket ~name:"bcnt" trace))
  in
  check_bool "restart hit" true warm.Protocol.cache_hit;
  check_bool "identical across restart" true (cold.Protocol.outcome = warm.Protocol.outcome);
  check_bool "matches the direct pipeline" true
    (warm.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"bcnt" trace));
  Sys.remove wal

let test_restart_survives_damage () =
  let wal = temp_wal () in
  let trace_a = Lazy.force small_trace in
  let trace_b = Workload.data_trace (Registry.find "crc") in
  with_server ~wal_path:wal (fun socket _server ->
      ignore (ok_or_fail (Client.submit ~socket ~name:"a" trace_a));
      ignore (ok_or_fail (Client.submit ~socket ~name:"b" trace_b)));
  (* crash damage: a torn append at the tail plus a bit flip inside the
     first record; only record B survives intact *)
  let data = read_file wal in
  let flipped = Bytes.of_string (data ^ "DSEWgarbage-torn-tail") in
  Bytes.set flipped 40 (Char.chr (Char.code (Bytes.get flipped 40) lxor 0x10));
  write_file wal (Bytes.to_string flipped);
  with_server ~wal_path:wal (fun socket _server ->
      let b = ok_or_fail (Client.submit ~socket ~name:"b" trace_b) in
      check_bool "intact record answers warm" true b.Protocol.cache_hit;
      check_bool "intact record correct" true
        (b.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"b" trace_b));
      (* the damaged record is simply recomputed — correctly *)
      let a = ok_or_fail (Client.submit ~socket ~name:"a" trace_a) in
      check_bool "damaged record recomputes" false a.Protocol.cache_hit;
      check_bool "recomputed correctly" true
        (a.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"a" trace_a)));
  Sys.remove wal

(* -- client retry -- *)

let test_retry_gives_up_at_cap () =
  let missing = temp_socket_path () in
  let started = Unix.gettimeofday () in
  (match
     Client.submit ~socket:missing ~retries:50 ~retry_base:0.02 ~retry_cap:0.3 ~name:"r"
       (Lazy.force small_trace)
   with
  | Error (Dse_error.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong class: %s" (Dse_error.to_string e)
  | Ok _ -> Alcotest.fail "submit to a missing socket succeeded");
  let elapsed = Unix.gettimeofday () -. started in
  (* 50 attempts at exponential growth would take minutes; the cap must
     have cut in well before *)
  check_bool "wall-clock capped" true (elapsed < 2.0)

let test_retry_recovers_from_queue_full () =
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
      let client_a = Domain.spawn (fun () -> Client.submit ~socket ~name:"a" trace_a) in
      Semaphore.Counting.acquire started;
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
      (* C's first attempt hits Queue_full; the backoff outlives the
         gate release below, so a later attempt lands *)
      let client_c =
        Domain.spawn (fun () ->
            Client.submit ~socket ~retries:20 ~retry_base:0.05 ~retry_cap:20. ~name:"c" trace_c)
      in
      Unix.sleepf 0.15;
      Semaphore.Counting.release gate;
      Semaphore.Counting.release gate;
      Semaphore.Counting.release gate;
      let payload_c = ok_or_fail (Domain.join client_c) in
      check_bool "retried to success" true
        (payload_c.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"c" trace_c));
      ignore (ok_or_fail (Domain.join client_a));
      ignore (ok_or_fail (Domain.join client_b)))

(* -- liveness probes leave no trace in the daemon's log -- *)

let test_probe_is_silent () =
  let logged = ref [] in
  let mutex = Mutex.create () in
  let log line =
    Mutex.lock mutex;
    logged := line :: !logged;
    Mutex.unlock mutex
  in
  with_server ~log (fun socket _server ->
      (* a monitoring-style probe: connect, send nothing, close *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.close fd;
      (* a subsequent real request confirms the probe was processed *)
      ok_or_fail (Client.ping ~socket);
      check_bool "no log line for the probe" true (!logged = []))

(* -- a packed entry: one encoding for cache, WAL and replication -- *)

let test_packed_entry_roundtrip () =
  let trace = Lazy.force small_trace in
  let prepared = Analytical.prepare trace in
  let entry =
    Result_cache.Exact
      { stats = Analytical.stats prepared; histograms = Analytical.histograms prepared }
  in
  let key =
    { Result_cache.fingerprint = Trace.fingerprint trace;
      method_tag = Protocol.method_tag Analytical.Arena; domains = 1; max_level = -1 }
  in
  let record =
    match Wal.encode_record key entry with
    | Some record -> record
    | None -> Alcotest.fail "exact entry not encoded"
  in
  (* the cache holds the entry as exactly its record and decodes it on a
     hit *)
  let cache = Result_cache.create () in
  Result_cache.store cache key entry;
  check_bool "held as its record" true
    (Result_cache.snapshot cache = [ (key, Result_cache.Packed record) ]);
  check_bool "a hit decodes it" true (Result_cache.find cache key = Some entry);
  (* the log gets the held bytes as they are, on append and on
     compaction, and replay gives them back as they are *)
  let path = temp_wal () in
  let wal =
    ok_or_fail
      (Wal.open_ ~capacity:4 ~snapshot:(fun () -> Result_cache.snapshot cache) path)
  in
  ok_or_fail (Wal.append wal key (Result_cache.Packed record));
  check_bool "appended verbatim" true (read_file path = record);
  ok_or_fail (Wal.compact wal);
  Wal.close wal;
  check_bool "compacted verbatim" true (read_file path = record);
  check_bool "replay keeps it packed" true
    ((ok_or_fail (Wal.replay path)).Wal.entries = [ (key, Result_cache.Packed record) ]);
  check_bool "it decodes to the entry" true (Result_cache.decode record = entry);
  Sys.remove path;
  (* a daemon stores a pushed record, hands it to a peer byte for byte
     and answers the trace warm, exactly as direct explore *)
  with_server (fun socket _server ->
      (match Client.exchange socket (Protocol.Replicate { ring_version = 0; records = [ record ] }) with
      | Ok (Protocol.Replicate_ack { stored }) -> check_int "stored" 1 stored
      | _ -> Alcotest.fail "replicate refused");
      (match Client.exchange socket (Protocol.Cache_query { ring_version = 0; keys = [ key ] }) with
      | Ok (Protocol.Cache_reply { records = [ served ]; _ }) ->
        check_bool "a peer gets the record verbatim" true (served = record)
      | _ -> Alcotest.fail "cache query missed");
      let payload = ok_or_fail (Client.submit ~socket ~name:"bcnt" trace) in
      check_bool "answered warm" true payload.Protocol.cache_hit;
      check_bool "as direct explore" true
        (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"bcnt" trace)))

(* A restart cuts a torn tail off the log before its first append, so
   the new record cannot be read as the rest of the torn one. *)
let test_restore_cuts_torn_tail () =
  let path = temp_wal () in
  with_wal path (fun wal _ ->
      List.iter (fun i -> ok_or_fail (Wal.append wal (key i) (entry i))) [ 1; 2; 3 ]);
  let data = read_file path in
  let record_len = String.length data / 3 in
  write_file path (String.sub data 0 (String.length data - 1));
  let r = ok_or_fail (Wal.restore path) in
  check_int "two intact" 2 r.Wal.intact;
  check_bool "torn tail flagged" true r.Wal.truncated;
  check_int "the file ends at the last whole record" (2 * record_len)
    (String.length (read_file path));
  with_wal path (fun wal _ -> ok_or_fail (Wal.append wal (key 4) (entry 4)));
  let r = ok_or_fail (Wal.replay path) in
  check_int "no damage after the append" 0 r.Wal.damaged;
  check_bool "the append is replayed" true
    (decoded r = [ (key 1, entry 1); (key 2, entry 2); (key 4, entry 4) ]);
  Sys.remove path

let suites =
  [
    ( "selfheal:cancel",
      [
        Alcotest.test_case "token semantics" `Quick test_cancel_token;
        Alcotest.test_case "kernels honour cancellation" `Quick test_kernels_honour_cancellation;
      ] );
    ( "selfheal:components",
      [
        Alcotest.test_case "LRU bound and eviction" `Quick test_cache_lru_bound;
        Alcotest.test_case "inflight table" `Quick test_inflight;
        Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
        Alcotest.test_case "wal golden record bytes" `Quick test_wal_golden_records;
        Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
        Alcotest.test_case "wal bit flip" `Quick test_wal_bitflip;
        Alcotest.test_case "wal compaction" `Quick test_wal_compaction;
        Alcotest.test_case "restore cuts a torn tail" `Quick test_restore_cuts_torn_tail;
        Alcotest.test_case "zero-byte close" `Quick test_zero_byte_close;
        Alcotest.test_case "receive timeout is typed" `Quick test_receive_timeout_typed;
      ] );
    ( "selfheal:service",
      [
        Alcotest.test_case "deadline expiry frees the worker" `Quick
          test_deadline_expiry_frees_worker;
        Alcotest.test_case "deadline validation" `Quick test_deadline_validation;
        Alcotest.test_case "single flight coalesces" `Quick test_single_flight_coalesces;
        Alcotest.test_case "restart answers warm" `Quick test_restart_answers_warm;
        Alcotest.test_case "restart survives damage" `Quick test_restart_survives_damage;
        Alcotest.test_case "retry gives up at the cap" `Quick test_retry_gives_up_at_cap;
        Alcotest.test_case "retry recovers from queue-full" `Quick
          test_retry_recovers_from_queue_full;
        Alcotest.test_case "probes are silent" `Quick test_probe_is_silent;
        Alcotest.test_case "packed entry through cache, WAL and Replicate" `Quick
          test_packed_entry_roundtrip;
      ] );
  ]
