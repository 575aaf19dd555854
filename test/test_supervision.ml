(* Tests for the supervision plane: heartbeats, the worker watchdog
   (wedged incarnations replaced, slow-but-beating workers left alone),
   admission control before trace allocation, overload shedding with
   retry hints, the health plane, and the crash-loop supervisor. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let prop ?(count = 120) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

(* -- heartbeats -- *)

let test_heartbeat () =
  let hb = Heartbeat.create () in
  check_bool "fresh heartbeat is young" true (Heartbeat.age hb < 1.);
  check_bool "age grows monotonically" true
    (Heartbeat.age ~now:(Heartbeat.last hb +. 5.) hb = 5.);
  Unix.sleepf 0.02;
  let before = Heartbeat.last hb in
  Heartbeat.beat hb;
  check_bool "beat refreshes" true (Heartbeat.last hb > before);
  (* the kernel side: a token carrying a heartbeat beats it at every
     cancellation poll, so poll cadence == beat cadence *)
  let cancel = Cancel.with_heartbeat hb (Cancel.after 3600.) in
  Unix.sleepf 0.02;
  let stale = Heartbeat.age hb in
  Cancel.check cancel;
  check_bool "check beats the heartbeat" true (Heartbeat.age hb < stale);
  (* an uncancellable token still beats *)
  let hb2 = Heartbeat.create () in
  Cancel.check (Cancel.with_heartbeat hb2 (Cancel.cancellable ()));
  check_bool "cancellable token beats too" true (Heartbeat.age hb2 < 1.)

(* -- admission estimate -- *)

let test_estimate_bytes () =
  check_bool "zero refs still costs the envelope" true
    (Trace.estimate_bytes ~model:`Arena ~refs:0 > 0);
  check_bool "monotone" true
    (Trace.estimate_bytes ~model:`Arena ~refs:1000
    < Trace.estimate_bytes ~model:`Arena ~refs:2000);
  (* the price of an exact job: 100 B/ref over a 1 KiB floor *)
  check_int "arena price" (1024 + (100 * 1_000_000))
    (Trace.estimate_bytes ~model:`Arena ~refs:1_000_000);
  check_bool "sketch price ignores the length" true
    (Trace.estimate_bytes ~model:`Sketch ~refs:0
    = Trace.estimate_bytes ~model:`Sketch ~refs:1_000_000_000);
  (* pessimistic: a real trace's storage never exceeds the estimate *)
  let trace = Trace.of_addresses (Array.init 4096 (fun i -> i)) in
  let words = Obj.reachable_words (Obj.repr trace) in
  check_bool "arena upper bound on real storage" true
    (words * 8 < Trace.estimate_bytes ~model:`Arena ~refs:(Trace.length trace));
  (match Trace.estimate_bytes ~model:`Arena ~refs:(-1) with
  | _ -> Alcotest.fail "negative refs accepted"
  | exception Invalid_argument _ -> ())

(* -- stats --json (satellite) -- *)

let test_stats_json () =
  let trace = Trace.of_addresses [| 1; 2; 3; 1 |] in
  let stats = Stats.compute trace in
  let line = Report.stats_to_json ~name:"loop\"x" ~fingerprint:(Trace.fingerprint trace) stats in
  let contains needle =
    let n = String.length needle and l = String.length line in
    let rec scan i = i + n <= l && (String.sub line i n = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "quote escaped" true (contains "loop\\\"x");
  check_bool "n field" true (contains "\"n\": 4");
  check_bool "n_unique field" true (contains "\"n_unique\": 3");
  check_bool "fingerprint is a 16-digit hex string" true
    (contains (Printf.sprintf "\"%016Lx\"" (Trace.fingerprint trace)));
  check_bool "single line" true (not (String.contains line '\n'))

(* -- protocol v3: health round trip, new error constructors -- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_health_roundtrip () =
  with_socketpair (fun a b ->
      ok_or_fail (Protocol.write_request a Protocol.Health);
      match ok_or_fail (Protocol.read_request b) with
      | Some Protocol.Health -> ()
      | _ -> Alcotest.fail "expected Health");
  let health =
    {
      Protocol.node_id = "127.0.0.1:7700";
      start_epoch = 1722400000.5;
      uptime = 12.5;
      workers =
        [
          { Protocol.slot = 0; busy = true; job = "loop-139264"; heartbeat_age = 0.25; jobs_done = 3 };
          { Protocol.slot = 1; busy = false; job = ""; heartbeat_age = 0.; jobs_done = 7 };
        ];
      workers_replaced = 1;
      queue_depth = 2;
      queue_watermark = 3;
      max_pending = 4;
      shed = 5;
      admission_rejected = 6;
      jobs_completed = 10;
      cache_hits = 4;
      cache_misses = 6;
      cache_entries = 6;
      cache_evictions = 0;
      coalesced_hits = 2;
      wal_enabled = true;
      wal_appends = 6;
      wal_failures = 1;
      peer_hits = 3;
      replicated_in = 4;
      replicated_out = 5;
      replication_lag = 1;
      replication_dropped = 2;
      ring_version = 3;
      draining = true;
      replica_gc_dropped = 4;
    }
  in
  with_socketpair (fun a b ->
      ok_or_fail (Protocol.write_response a (Protocol.Health_reply health));
      match ok_or_fail (Protocol.read_response b) with
      | Protocol.Health_reply h -> check_bool "health round trips" true (h = health)
      | _ -> Alcotest.fail "expected Health_reply")

let test_new_exit_codes () =
  check_int "worker stalled is exit 8" 8
    (Dse_error.exit_code (Dse_error.Worker_stalled { elapsed = 2.; job = "j" }));
  check_int "resource exhausted is exit 8" 8
    (Dse_error.exit_code
       (Dse_error.Resource_exhausted { resource = "trace references"; needed = 2; budget = 1 }))

(* -- pool + watchdog, deterministically, no daemon -- *)

type unit_job = Wedge | Note of int

let test_watchdog_replaces_wedged_worker () =
  let queue = Job_queue.create ~max_pending:4 in
  let release = Atomic.make false in
  let wedged = Semaphore.Counting.make 0 in
  let note = Atomic.make 0 in
  let run ~heartbeat job =
    match job with
    | Wedge ->
      (* wedge: signal arrival, then block without ever beating *)
      Semaphore.Counting.release wedged;
      while not (Atomic.get release) do
        Unix.sleepf 0.002
      done
    | Note n ->
      Heartbeat.beat heartbeat;
      Atomic.set note n
  in
  let pool = Worker_pool.start ~workers:1 ~run queue in
  (match Job_queue.push queue Wedge with `Ok -> () | _ -> Alcotest.fail "push");
  Semaphore.Counting.acquire wedged;
  (* a scan before the timeout elapses must not shoot the worker *)
  check_bool "young worker spared" true (Watchdog.scan pool ~hang_timeout:60. = []);
  Unix.sleepf 0.12;
  (match Watchdog.scan pool ~hang_timeout:0.1 with
  | [ s ] ->
    check_int "slot" 0 s.Watchdog.slot;
    check_bool "the wedged job is reported" true (s.Watchdog.job = Wedge);
    check_bool "silence tripped the timeout" true (s.Watchdog.silent_for > 0.1);
    check_bool "elapsed covers the silence" true (s.Watchdog.elapsed >= s.Watchdog.silent_for -. 0.01)
  | l -> Alcotest.failf "expected one stalled worker, got %d" (List.length l));
  check_int "one replacement" 1 (Worker_pool.replaced pool);
  (* the replacement is fresh: nothing left to shoot *)
  check_bool "second scan idle" true (Watchdog.scan pool ~hang_timeout:0.1 = []);
  (* the replacement serves the queue *)
  (match Job_queue.push queue (Note 7) with `Ok -> () | _ -> Alcotest.fail "push");
  let rec wait tries =
    if tries = 0 then Alcotest.fail "replacement never served";
    if Atomic.get note <> 7 then begin
      Unix.sleepf 0.01;
      wait (tries - 1)
    end
  in
  wait 500;
  (* unwedge the abandoned incarnation so its domain can exit; it must
     finish without touching the queue again *)
  Atomic.set release true;
  Job_queue.close queue;
  Worker_pool.join pool;
  check_int "still exactly one replacement" 1 (Worker_pool.replaced pool);
  match Watchdog.scan pool ~hang_timeout:0. with
  | _ -> Alcotest.fail "non-positive hang_timeout accepted"
  | exception Invalid_argument _ -> ()

let prop_heartbeating_worker_never_killed =
  (* a slow job that keeps beating at poll cadence is never replaced,
     however long it outlives the hang timeout *)
  prop ~count:4 "slow-but-heartbeating worker is never replaced"
    QCheck2.Gen.(float_range 0.15 0.3)
    (fun duration ->
      let queue = Job_queue.create ~max_pending:2 in
      let finished = Atomic.make false in
      let run ~heartbeat () =
        let stop = Unix.gettimeofday () +. duration in
        while Unix.gettimeofday () < stop do
          Heartbeat.beat heartbeat;
          Unix.sleepf 0.002
        done;
        Atomic.set finished true
      in
      let pool = Worker_pool.start ~workers:1 ~run queue in
      (match Job_queue.push queue () with `Ok -> () | _ -> failwith "push");
      (* hang_timeout is a fraction of the job's runtime but far above
         the beat cadence: the watchdog must stay quiet throughout *)
      let never_shot = ref true in
      let deadline = Unix.gettimeofday () +. duration +. 2. in
      while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
        if Watchdog.scan pool ~hang_timeout:0.1 <> [] then never_shot := false;
        Unix.sleepf 0.01
      done;
      Job_queue.close queue;
      Worker_pool.join pool;
      !never_shot && Atomic.get finished && Worker_pool.replaced pool = 0)

(* -- crash-loop supervisor -- *)

let test_supervisor_respawns_then_exits_clean () =
  let path = Filename.temp_file "dse_sup" ".runs" in
  let runs () = (Unix.stat path).Unix.st_size in
  (* each run appends one byte; the first two incarnations crash hard
     (exit 9 straight at the syscall, as a kill -9'd daemon would look
     to waitpid), the third returns cleanly *)
  let child () =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o600 in
    ignore (Unix.write fd (Bytes.of_string "x") 0 1);
    Unix.close fd;
    if (Unix.stat path).Unix.st_size <= 2 then Unix._exit 9
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let logged = ref 0 in
      let code =
        Supervisor.run ~backoff_base:0.01 ~backoff_cap:0.05 ~log:(fun _ -> incr logged) child
      in
      check_int "supervisor exits clean" 0 code;
      check_int "two crashes, one clean run" 3 (runs ());
      check_bool "respawns were logged" true (!logged >= 2))

let test_supervisor_gives_up_on_crash_loop () =
  let code =
    Supervisor.run ~max_rapid_crashes:2 ~rapid_window:30. ~backoff_base:0.005 ~backoff_cap:0.01
      ~log:(fun _ -> ())
      (fun () -> Unix._exit 9)
  in
  check_int "crash loop ends in exit 1" 1 code

(* -- daemon-level supervision -- *)

let temp_socket_path () =
  let path = Filename.temp_file "dse_supervision" ".sock" in
  Sys.remove path;
  path

let with_server ?(workers = 2) ?(max_pending = 16) ?(hang_timeout = 30.) ?max_job_refs
    ?memory_budget ?on_job_start f =
  let path = temp_socket_path () in
  let server =
    match
      Server.create ?on_job_start ~log:(fun _ -> ())
        {
          Server.socket_path = path;
          tcp = None;
          node_id = None;
          workers;
          max_pending;
          cache_entries = Result_cache.default_capacity;
          wal_path = None;
          hang_timeout;
          max_job_refs;
          memory_budget;
          peers = [];
          replication = 2;
          replication_queue = 256;
          anti_entropy = false;
        }
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

(* Wide but cheap: 139264 references (>= 2 x Arena_kernel.min_shard_refs,
   so --domains 2 takes the sharded path the hang injection lives on)
   over only 256 uniques. The small working set matters twice: the
   healthy shard — whose polls beat the job's shared heartbeat — drains
   in well under the hang timeout, so the silence the watchdog measures
   starts promptly; and conflict counts stay short, so the replacement's
   rerun is sub-second. *)
let hang_trace = lazy (Synthetic.loop ~base:0 ~body:256 ~iterations:544)

let test_watchdog_answers_hung_job () =
  let trace = Lazy.force hang_trace in
  check_bool "trace is wide enough to shard at 2 domains" true
    (Trace.length trace >= 2 * Arena_kernel.min_shard_refs);
  let hang_timeout = 0.75 in
  Fault.set (Some { Fault.kind = Fault.Hang; shard = 0; times = 1 });
  Fun.protect
    ~finally:(fun () ->
      (* disarm first (release survives until the next [set]), then
         unwedge the abandoned domain so it can run to completion *)
      Fault.set None;
      Fault.release_hangs ())
    (fun () ->
      with_server ~workers:1 ~hang_timeout (fun socket _server ->
          let started = Unix.gettimeofday () in
          (match Client.submit ~socket ~domains:2 ~name:"wedge" trace with
          | Error (Dse_error.Worker_stalled { elapsed; job } as e) ->
            check_bool "stall elapsed reported" true (elapsed >= hang_timeout);
            check_bool "job named" true (String.length job > 0);
            check_int "exit code 8" 8 (Dse_error.exit_code e)
          | Error e -> Alcotest.failf "wrong error class: %s" (Dse_error.to_string e)
          | Ok _ -> Alcotest.fail "hung job produced a result");
          let detection = Unix.gettimeofday () -. started in
          (* acceptance bound: detected within 2 x hang-timeout *)
          check_bool "detected within 2 x hang-timeout" true (detection < 2. *. hang_timeout);
          (* the daemon stayed up and spawned a replacement... *)
          let h = ok_or_fail (Client.health ~socket) in
          check_int "one replacement" 1 h.Protocol.workers_replaced;
          check_int "still one worker slot" 1 (List.length h.Protocol.workers);
          (* ...which answers the identical resubmission, bit-identical
             to the sequential pipeline (the hang budget is spent) *)
          let payload = ok_or_fail (Client.submit ~socket ~domains:2 ~name:"wedge" trace) in
          check_bool "replacement answers bit-identically" true
            (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"wedge" trace))))

let test_slow_job_with_heartbeats_survives () =
  (* a genuinely slow job (at least 1 s of kernel work) against a hang
     timeout it dwarfs: the heartbeat at every cancellation poll keeps
     the watchdog away, and the answer matches the sequential pipeline.
     The trace is sized by calibration, doubling the loop count until an
     in-process run takes 1 s, so a faster kernel still outlives the
     timeout. 1024 uniques keep the per-reference conflict count short
     (a scan of at most ~2 x 1024 slots, 62 to a word), so polls, and
     therefore beats, stay orders of magnitude denser than the timeout
     (a 16k-unique trace can gap ~0.4 s between 1024-reference polls and
     would flap this test). *)
  let rec calibrate iterations =
    let trace = Synthetic.loop ~base:0 ~body:1024 ~iterations in
    let started = Unix.gettimeofday () in
    ignore (Analytical_dse.run ~name:"slow" trace);
    if Unix.gettimeofday () -. started >= 1. then trace else calibrate (2 * iterations)
  in
  let trace = calibrate 136 in
  with_server ~workers:1 ~hang_timeout:0.4 (fun socket _server ->
      let started = Unix.gettimeofday () in
      let payload = ok_or_fail (Client.submit ~socket ~name:"slow" trace) in
      let elapsed = Unix.gettimeofday () -. started in
      check_bool "job genuinely outlived the hang timeout" true (elapsed > 0.4);
      check_bool "histograms identical to sequential" true
        (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"slow" trace));
      let h = ok_or_fail (Client.health ~socket) in
      check_int "never replaced" 0 h.Protocol.workers_replaced;
      check_int "job completed" 1 h.Protocol.jobs_completed)

(* -- admission control -- *)

let test_admission_rejects_oversized_trace () =
  with_server ~max_job_refs:4096 (fun socket _server ->
      let oversized = Trace.of_addresses (Array.init 8192 (fun i -> i land 255)) in
      (match Client.submit ~socket ~name:"big" oversized with
      | Error (Dse_error.Resource_exhausted { resource; needed; budget } as e) ->
        check_bool "resource named" true (resource = "trace references");
        check_int "needed" 8192 needed;
        check_int "budget" 4096 budget;
        check_int "exit code 8" 8 (Dse_error.exit_code e)
      | Error e -> Alcotest.failf "wrong error class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "oversized submission accepted");
      (* the daemon keeps serving, and jobs under the bound still land *)
      let small = Trace.of_addresses (Array.init 64 (fun i -> i * 3)) in
      let payload = ok_or_fail (Client.submit ~socket ~name:"small" small) in
      check_bool "small job served" true
        (payload.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"small" small));
      let h = ok_or_fail (Client.health ~socket) in
      check_int "rejection counted" 1 h.Protocol.admission_rejected)

(* Admission prices per kernel: an exact job pays the arena model
   (100 B/ref), an approx job the sketch's fixed footprint. Under one
   memory budget a trace too large for the exact kernel is still
   admitted approximately, and a smaller exact job is admitted at its
   arena price and answered bit-identically to a direct run. *)
let test_admission_prices_per_kernel () =
  let budget = Trace.estimate_bytes ~model:`Sketch ~refs:0 + 1024 in
  let big_refs = 300_000 and small_refs = 40_000 in
  let big = Trace.of_addresses (Array.init big_refs (fun i -> i land 255)) in
  let small = Trace.of_addresses (Array.init small_refs (fun i -> i land 255)) in
  check_bool "budget splits the two traces under the arena model" true
    (Trace.estimate_bytes ~model:`Arena ~refs:big_refs > budget
    && Trace.estimate_bytes ~model:`Arena ~refs:small_refs <= budget);
  with_server ~memory_budget:budget (fun socket _server ->
      (match Client.submit ~socket ~name:"big" big with
      | Error (Dse_error.Resource_exhausted { resource; needed; budget = echoed }) ->
        check_bool "estimate named" true (resource = "estimated bytes");
        check_int "arena pricing" (Trace.estimate_bytes ~model:`Arena ~refs:big_refs) needed;
        check_int "budget echoed" budget echoed
      | Error e -> Alcotest.failf "wrong error class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "exact job admitted over budget");
      let approx = ok_or_fail (Client.submit ~socket ~approx:true ~name:"big" big) in
      check_bool "approx job admitted at the sketch price" true
        (match approx.Protocol.outcome with Protocol.Approx_table _ -> true | _ -> false);
      let cold = ok_or_fail (Client.submit ~socket ~name:"j" small) in
      check_bool "arena job admitted and computed" true (not cold.Protocol.cache_hit);
      check_bool "arena result is the direct run's result" true
        (cold.Protocol.outcome = Protocol.Table (Analytical_dse.run ~name:"j" small));
      (* cached re-query of the admitted job is bit-identical *)
      let warm = ok_or_fail (Client.submit ~socket ~name:"j" small) in
      check_bool "cache hit" true warm.Protocol.cache_hit;
      check_bool "bit-identical outcome" true (warm.Protocol.outcome = cold.Protocol.outcome);
      let h = ok_or_fail (Client.health ~socket) in
      check_int "one admission rejection" 1 h.Protocol.admission_rejected;
      check_int "two kernel runs" 2 h.Protocol.jobs_completed;
      check_int "one cache hit" 1 h.Protocol.cache_hits)

(* Retired method bytes get a typed constraint violation, and the
   daemon keeps serving. *)
let test_retired_methods_rejected () =
  with_server (fun socket _server ->
      Frames.expect_retired_methods_rejected socket;
      match Frames.exchange socket (Frames.submit ~method_byte:3 ~declared:3 [ 1; 2; 1 ]) with
      | Ok (Protocol.Result _) -> ()
      | _ -> Alcotest.fail "arena submission after the rejections failed")

(* A submission frame declaring [refs] references but carrying none of
   them: admission must judge the declared varint, not the bytes. *)
let declared_refs_frame ~refs = Frames.submit ~name:"huge" ~method_byte:3 ~declared:refs []

let test_admission_runs_before_allocation () =
  (* 400M declared references estimate to ~40 GB; if the daemon tried
     to materialise the trace before judging it, the heap high-water
     mark would explode (or the machine would). It must instead answer
     from the declared varint alone. *)
  let declared = 400_000_000 in
  with_server ~memory_budget:(64 * 1024 * 1024) (fun socket _server ->
      let before = (Gc.quick_stat ()).Gc.top_heap_words in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let frame = declared_refs_frame ~refs:declared in
          let rec write_all off =
            if off < Bytes.length frame then
              write_all (off + Unix.write fd frame off (Bytes.length frame - off))
          in
          write_all 0;
          match ok_or_fail (Protocol.read_response fd) with
          | Protocol.Server_error (Dse_error.Resource_exhausted { resource; needed; budget }) ->
            check_bool "estimate named" true (resource = "estimated bytes");
            (* the raw frame declares the exact arena method, so the
               arena cost model prices it *)
            check_bool "needed reflects the declaration" true
              (needed = Trace.estimate_bytes ~model:`Arena ~refs:declared);
            check_int "budget echoed" (64 * 1024 * 1024) budget
          | Protocol.Server_error e -> Alcotest.failf "wrong error: %s" (Dse_error.to_string e)
          | _ -> Alcotest.fail "declared-oversized submission accepted");
      let after = (Gc.quick_stat ()).Gc.top_heap_words in
      (* 400M references would need >= 400M heap words just for the
         access array; the high-water mark must not have moved anywhere
         near that *)
      check_bool "no allocation anywhere near the declared size" true
        (after - before < declared / 8))

(* -- overload shedding -- *)

let test_shedding_heavy_jobs_past_watermark () =
  let started = Semaphore.Counting.make 0 in
  let gate = Semaphore.Counting.make 0 in
  let hook () =
    Semaphore.Counting.release started;
    Semaphore.Counting.acquire gate
  in
  (* max_pending 4 => watermark 3 *)
  with_server ~workers:1 ~max_pending:4 ~on_job_start:hook (fun socket _server ->
      let light seed = Trace.of_addresses (Array.init 64 (fun i -> i * seed)) in
      let heavy =
        Trace.of_addresses (Array.init Arena_kernel.min_shard_refs (fun i -> i land 1023))
      in
      let submit_async name trace =
        Domain.spawn (fun () -> Client.submit ~socket ~name trace)
      in
      let a = submit_async "a" (light 3) in
      Semaphore.Counting.acquire started;
      let queued = List.map (fun s -> submit_async (string_of_int s) (light s)) [ 5; 7; 11 ] in
      let rec wait_depth tries =
        if tries = 0 then Alcotest.fail "queue never filled to the watermark";
        let h = ok_or_fail (Client.health ~socket) in
        if h.Protocol.queue_depth < h.Protocol.queue_watermark then begin
          Unix.sleepf 0.02;
          wait_depth (tries - 1)
        end
      in
      wait_depth 250;
      (* past the watermark a heavy job is shed, with a positive hint *)
      (match Client.submit ~socket ~name:"heavy" heavy with
      | Error (Dse_error.Queue_full { pending; retry_after; _ }) ->
        check_bool "shed at the watermark, not at capacity" true (pending < 4);
        check_bool "retry hint positive" true (retry_after > 0.)
      | Error e -> Alcotest.failf "wrong error class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "heavy job accepted past the watermark");
      (* ...while the control plane and light jobs keep being served *)
      ok_or_fail (Client.ping ~socket);
      let h = ok_or_fail (Client.health ~socket) in
      check_int "shed counted" 1 h.Protocol.shed;
      check_int "watermark surfaced" 3 h.Protocol.queue_watermark;
      let f = submit_async "f" (light 13) in
      (* the queue still had one light slot: depth must reach capacity *)
      let rec wait_full tries =
        if tries = 0 then Alcotest.fail "light job never queued";
        let h = ok_or_fail (Client.health ~socket) in
        if h.Protocol.queue_depth < 4 then begin
          Unix.sleepf 0.02;
          wait_full (tries - 1)
        end
      in
      wait_full 250;
      (* at capacity even light jobs are refused — with the same hint,
         which client backoff honours: one retry must sleep at least
         the server's hint before giving up *)
      let hinted = Unix.gettimeofday () in
      (match
         Client.submit ~socket ~retries:1 ~retry_base:0.0001 ~retry_cap:30. ~name:"g" (light 17)
       with
      | Error (Dse_error.Queue_full { retry_after; _ }) ->
        check_bool "full reply carries a hint" true (retry_after > 0.);
        check_bool "client slept at least the hint" true
          (Unix.gettimeofday () -. hinted >= retry_after *. 0.9)
      | Error e -> Alcotest.failf "wrong error class: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "submission accepted at capacity");
      (* release the gated worker and drain everything that was accepted *)
      for _ = 1 to 5 do
        Semaphore.Counting.release gate
      done;
      let check_done name d =
        let p = ok_or_fail (Domain.join d) in
        check_bool (name ^ " answered") true
          (match p.Protocol.outcome with Protocol.Table _ -> true | _ -> false)
      in
      check_done "a" a;
      List.iteri (fun i d -> check_done (Printf.sprintf "queued %d" i) d) queued;
      check_done "f" f;
      let h = ok_or_fail (Client.health ~socket) in
      check_int "all accepted jobs completed" 5 h.Protocol.jobs_completed;
      check_bool "uptime sane" true (h.Protocol.uptime > 0.))

let suites =
  [
    ( "supervision:units",
      [
        Alcotest.test_case "heartbeat semantics" `Quick test_heartbeat;
        Alcotest.test_case "admission estimate" `Quick test_estimate_bytes;
        Alcotest.test_case "stats to json" `Quick test_stats_json;
        Alcotest.test_case "health round trip" `Quick test_health_roundtrip;
        Alcotest.test_case "exit code 8" `Quick test_new_exit_codes;
      ] );
    ( "supervision:pool",
      [
        Alcotest.test_case "wedged worker replaced" `Quick test_watchdog_replaces_wedged_worker;
        prop_heartbeating_worker_never_killed;
      ] );
    ( "supervision:daemon",
      [
        Alcotest.test_case "watchdog answers a hung job" `Quick test_watchdog_answers_hung_job;
        Alcotest.test_case "slow heartbeating job survives" `Quick
          test_slow_job_with_heartbeats_survives;
        Alcotest.test_case "admission rejects oversized" `Quick
          test_admission_rejects_oversized_trace;
        Alcotest.test_case "admission precedes allocation" `Quick
          test_admission_runs_before_allocation;
        Alcotest.test_case "retired methods rejected" `Quick test_retired_methods_rejected;
        Alcotest.test_case "admission prices per kernel" `Quick
          test_admission_prices_per_kernel;
        Alcotest.test_case "sheds heavy jobs past watermark" `Quick
          test_shedding_heavy_jobs_past_watermark;
      ] );
  ]

(* [Unix.fork] is forbidden once any domain has ever been spawned, and
   the aggregated runner exercises worker pools long before this file's
   suites come up — so the fork-based supervisor tests live in their own
   executable ([supervisor_runner.ml]) that forks before any domain
   exists. *)
let supervisor_suites =
  [
    ( "supervision:supervisor",
      [
        Alcotest.test_case "respawns then exits clean" `Quick
          test_supervisor_respawns_then_exits_clean;
        Alcotest.test_case "gives up on a crash loop" `Quick test_supervisor_gives_up_on_crash_loop;
      ] );
  ]
