(* The approximate plane: sketch accuracy, the Che/Fagin estimator, and
   the headline acceptance property — the exact miss count falls inside
   the reported error bars for >= 95% of (depth, associativity) points,
   pooled over every PowerStone trace and a synthetic zipfian grid.
   Approximate mode is allowed to be wrong, not confidently wrong. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prop ?(count = 60) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* -- HyperLogLog -- *)

let hll_of_list xs =
  let h = Sketch.Hll.create () in
  List.iter (Sketch.Hll.add h) xs;
  h

let test_hll_accuracy () =
  (* one decade per order of magnitude; the default 2^14 registers give
     ~0.8% standard error, so 4 sigma plus small-range slack is a
     comfortably deterministic bound *)
  List.iter
    (fun n ->
      let h = Sketch.Hll.create () in
      for i = 1 to n do
        Sketch.Hll.add h (i * 7919)
      done;
      let est = Sketch.Hll.estimate h in
      let err = Float.abs (est -. float_of_int n) /. float_of_int n in
      if err > 0.05 then
        Alcotest.failf "HLL at n=%d: estimate %.1f is %.1f%% off" n est (100. *. err))
    [ 100; 1_000; 10_000; 100_000 ]

let gen_small_ints = QCheck2.Gen.(list_size (int_range 0 400) (int_bound 10_000))

let hll_merge_props =
  [
    prop "HLL merge commutes" QCheck2.Gen.(pair gen_small_ints gen_small_ints)
      (fun (xs, ys) ->
        let a = hll_of_list xs and b = hll_of_list ys in
        Sketch.Hll.equal (Sketch.Hll.merge a b) (Sketch.Hll.merge b a));
    prop "HLL merge associates"
      QCheck2.Gen.(triple gen_small_ints gen_small_ints gen_small_ints)
      (fun (xs, ys, zs) ->
        let a = hll_of_list xs and b = hll_of_list ys and c = hll_of_list zs in
        Sketch.Hll.equal
          (Sketch.Hll.merge (Sketch.Hll.merge a b) c)
          (Sketch.Hll.merge a (Sketch.Hll.merge b c)));
    prop "HLL merge is idempotent" gen_small_ints (fun xs ->
        let a = hll_of_list xs in
        Sketch.Hll.equal (Sketch.Hll.merge a a) a);
    prop "HLL merge sketches the union" QCheck2.Gen.(pair gen_small_ints gen_small_ints)
      (fun (xs, ys) ->
        Sketch.Hll.equal
          (Sketch.Hll.merge (hll_of_list xs) (hll_of_list ys))
          (hll_of_list (xs @ ys)));
  ]

let test_distinct_hybrid () =
  (* below the overflow limit the hybrid counter is exact, bit for bit *)
  let d = Sketch.Distinct.create ~limit:512 () in
  for i = 1 to 300 do
    Sketch.Distinct.add d (i * 31)
  done;
  for i = 1 to 300 do
    Sketch.Distinct.add d (i * 31) (* repeats must not count *)
  done;
  check_bool "still exact" true (Sketch.Distinct.exact d);
  check_bool "exact count" true (Sketch.Distinct.estimate d = 300.);
  check_bool "zero reported error" true (Sketch.Distinct.rel_error d = 0.);
  (* past the limit it degrades to HLL, not to garbage *)
  for i = 1 to 5_000 do
    Sketch.Distinct.add d (1_000_000 + (i * 13))
  done;
  check_bool "overflowed" false (Sketch.Distinct.exact d);
  let est = Sketch.Distinct.estimate d in
  let err = Float.abs (est -. 5_300.) /. 5_300. in
  check_bool "HLL-mode estimate within 5%" true (err < 0.05)

(* -- Space-Saving heavy hitters -- *)

let test_heavy_hitter_guarantee () =
  let trace = Synthetic.power_law ~seed:7 ~span:4096 ~skew:1.1 ~length:120_000 () in
  let true_counts = Hashtbl.create 4096 in
  Trace.iter
    (fun { Trace.addr; _ } ->
      Hashtbl.replace true_counts addr (1 + Option.value ~default:0 (Hashtbl.find_opt true_counts addr)))
    trace;
  let profile = Sketch.of_trace trace in
  check_bool "some heavy hitters" true (Array.length profile.Sketch.heavy > 0);
  Array.iter
    (fun (h : Sketch.heavy) ->
      let truth = Option.value ~default:0 (Hashtbl.find_opt true_counts h.Sketch.addr) in
      if truth > h.Sketch.count || truth < h.Sketch.count - h.Sketch.overcount then
        Alcotest.failf "heavy hitter %d: true count %d outside [%d, %d]" h.Sketch.addr truth
          (h.Sketch.count - h.Sketch.overcount)
          h.Sketch.count)
    profile.Sketch.heavy;
  (* counts must come back rank-descending: the fit input ordering *)
  let sorted = ref true in
  Array.iteri
    (fun i (h : Sketch.heavy) ->
      if i > 0 && h.Sketch.count > profile.Sketch.heavy.(i - 1).Sketch.count then sorted := false)
    profile.Sketch.heavy;
  check_bool "count-descending" true !sorted

(* -- Che/Fagin fixed point -- *)

let test_che_fixed_point () =
  let trace = Synthetic.power_law ~seed:3 ~span:2048 ~skew:0.9 ~length:60_000 () in
  let model = Che.of_profile (Sketch.of_trace trace) in
  (* phi(solve_t C) = C: the defining identity, at several capacities *)
  List.iter
    (fun c ->
      let capacity = float_of_int c in
      if capacity < model.Che.distinct then begin
        let t = Che.solve_t model ~capacity in
        let back = Che.phi model t in
        let err = Float.abs (back -. capacity) /. capacity in
        if err > 0.01 then
          Alcotest.failf "fixed point at C=%d: phi(T)=%.2f (%.2f%% off)" c back (100. *. err)
      end)
    [ 2; 8; 32; 128; 512 ];
  (* a cache holding the whole working set has no warm misses *)
  check_bool "saturated solve" true
    (Che.solve_t model ~capacity:(model.Che.distinct +. 1.) = infinity);
  check_bool "saturated misses" true
    (Che.warm_misses_fa model ~capacity:(model.Che.distinct +. 1.) = 0.);
  (* miss count is monotone non-increasing in capacity *)
  let last = ref infinity in
  List.iter
    (fun c ->
      let m = Che.warm_misses_fa model ~capacity:(float_of_int c) in
      check_bool "monotone in capacity" true (m <= !last +. 1e-6);
      last := m)
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let test_zipf_closed_form () =
  (* unit vectors for the alpha > 1 closed form *)
  let r1 = Che.zipf_miss_rate ~alpha:1.5 ~capacity:10. in
  let r2 = Che.zipf_miss_rate ~alpha:1.5 ~capacity:100. in
  let r3 = Che.zipf_miss_rate ~alpha:2.5 ~capacity:100. in
  check_bool "rate in (0, 1]" true (r1 > 0. && r1 <= 1.);
  check_bool "decreasing in capacity" true (r2 < r1);
  check_bool "steeper law misses less" true (r3 < r2);
  (* M(C) ~ (C+1)^(1-alpha): doubling capacity at alpha=2 halves it *)
  let a = Che.zipf_miss_rate ~alpha:2.0 ~capacity:999. in
  let b = Che.zipf_miss_rate ~alpha:2.0 ~capacity:1999. in
  let ratio = a /. b in
  check_bool "scaling exponent" true (Float.abs (ratio -. 2.) < 0.02);
  check_bool "alpha <= 1 rejected" true
    (match Che.zipf_miss_rate ~alpha:1.0 ~capacity:8. with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fit_recovery () =
  (* regression over a noiseless law recovers its exponent *)
  List.iter
    (fun alpha ->
      let counts =
        Array.init 500 (fun i -> 1e6 *. ((float_of_int (i + 1)) ** (-.alpha)))
      in
      let fit = Che.fit_power_law counts in
      check_bool
        (Printf.sprintf "alpha %.1f recovered" alpha)
        true
        (Float.abs (fit.Che.alpha -. alpha) < 0.02 && fit.Che.r2 > 0.999))
    [ 0.6; 1.0; 1.7 ];
  (* degenerate input falls back instead of exploding *)
  let fallback = Che.fit_power_law [| 3.; 2. |] in
  check_bool "degenerate fallback" true (fallback.Che.alpha = 1.0 && fallback.Che.r2 = 0.)

(* -- streaming ingestion: iter/scan agree with the materialising path -- *)

let with_temp_file suffix f =
  let path = Filename.temp_file "dse_approx" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_iter_matches_load () =
  let trace = Synthetic.power_law ~seed:11 ~span:512 ~skew:0.8 ~length:5_000 () in
  with_temp_file ".trace" (fun path ->
      (match Trace_io.save path trace with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Dse_error.to_string e));
      let collected = Trace.create () in
      let stream =
        match Trace_io.iter path (fun ~addr ~kind -> Trace.add collected ~addr ~kind) with
        | Ok s -> s
        | Error e -> Alcotest.failf "iter: %s" (Dse_error.to_string e)
      in
      check_int "streamed refs" (Trace.length trace) stream.Trace_io.refs;
      check_int "nothing skipped" 0 stream.Trace_io.skipped;
      check_bool "same accesses" true (Trace.to_list collected = Trace.to_list trace))

let test_write_binary_stream_roundtrip () =
  let seed = 19 and span = 256 and skew = 1.0 and length = 4_000 in
  let materialised = Synthetic.power_law ~seed ~span ~skew ~length () in
  with_temp_file ".bin" (fun path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Trace_io.write_binary_stream oc ~length
            (Synthetic.iter_power_law ~seed ~span ~skew ~length));
      match Trace_io.load_binary path with
      | Ok ingest ->
        check_bool "stream-written file loads identically" true
          (Trace.to_list ingest.Trace_io.trace = Trace.to_list materialised)
      | Error e -> Alcotest.failf "load_binary: %s" (Dse_error.to_string e))

let test_sketch_file_matches_sketch_trace () =
  let trace = Synthetic.power_law ~seed:23 ~span:1024 ~skew:1.2 ~length:20_000 () in
  with_temp_file ".bin" (fun path ->
      (match Trace_io.save_binary path trace with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save_binary: %s" (Dse_error.to_string e));
      match Approx_dse.sketch_file ~format:`Binary path with
      | Error e -> Alcotest.failf "sketch_file: %s" (Dse_error.to_string e)
      | Ok (streamed, stream) ->
        check_int "refs" (Trace.length trace) stream.Trace_io.refs;
        check_bool "identical profile" true (streamed = Sketch.of_trace trace);
        check_bool "fingerprint is the trace's" true
          (streamed.Sketch.fingerprint = Trace.fingerprint trace))

(* -- dse stats cross-check: the sketch's N' against the exact one -- *)

let test_distinct_approx_on_powerstone () =
  List.iter
    (fun (b : Workload.t) ->
      let itrace, dtrace = Workload.traces b in
      List.iter
        (fun (label, trace) ->
          let exact = (Stats.compute trace).Stats.n_unique in
          let d = Sketch.distinct_create () in
          Trace.iter_addrs (Sketch.distinct_add d) trace;
          let approx = Sketch.distinct_estimate d in
          let err = Float.abs (approx -. float_of_int exact) /. Float.max 1. (float_of_int exact) in
          if err >= 0.02 then
            Alcotest.failf "%s.%s: distinct_addrs_approx %.1f vs exact %d (%.2f%% error)"
              b.Workload.name label approx exact (100. *. err))
        [ ("i", itrace); ("d", dtrace) ])
    (Registry.all ())

(* -- the acceptance property: exact inside the bars, pooled >= 95% -- *)

let assocs = [ 1; 2; 4; 8; 16 ]

type tally = { mutable points : int; mutable covered : int }

let tally_trace pooled name trace =
  let prepared = Analytical.prepare trace in
  let hists = Analytical.histograms prepared in
  let approx = Approx_dse.prepare (Sketch.of_trace trace) in
  let worst = ref None in
  for level = 0 to Analytical.max_level prepared do
    List.iter
      (fun assoc ->
        let exact =
          float_of_int (Optimizer.misses_of_histogram hists.(level) ~associativity:assoc)
        in
        let b = Approx_dse.misses approx ~depth:(1 lsl level) ~assoc in
        pooled.points <- pooled.points + 1;
        if exact >= b.Approx_dse.lo -. 1e-9 && exact <= b.Approx_dse.hi +. 1e-9 then
          pooled.covered <- pooled.covered + 1
        else if !worst = None then worst := Some (level, assoc, exact, b))
      assocs
  done;
  match !worst with
  | None -> ()
  | Some (level, assoc, exact, b) ->
    (* individual misses are tolerated (the property is pooled), but
       leave a breadcrumb in the test log *)
    Printf.eprintf "approx miss: %s L%d A%d exact=%.0f bars=[%.0f, %.0f]\n%!" name level assoc
      exact b.Approx_dse.lo b.Approx_dse.hi

let test_bars_cover_exact_powerstone () =
  let pooled = { points = 0; covered = 0 } in
  List.iter
    (fun (b : Workload.t) ->
      let itrace, dtrace = Workload.traces b in
      tally_trace pooled (b.Workload.name ^ ".i") itrace;
      tally_trace pooled (b.Workload.name ^ ".d") dtrace)
    (Registry.all ());
  check_bool "grid evaluated" true (pooled.points > 500);
  let coverage = float_of_int pooled.covered /. float_of_int pooled.points in
  if coverage < 0.95 then
    Alcotest.failf "pooled coverage %.2f%% (%d/%d) below 95%%" (100. *. coverage) pooled.covered
      pooled.points

let test_bars_cover_exact_synthetic () =
  let pooled = { points = 0; covered = 0 } in
  List.iter
    (fun (seed, span, skew, churn) ->
      let trace = Synthetic.power_law ~seed ~span ~skew ~churn ~length:100_000 () in
      let name = Printf.sprintf "zipf(s=%d,span=%d,a=%.1f,c=%.2f)" seed span skew churn in
      tally_trace pooled name trace)
    [
      (1, 1024, 0.6, 0.0);
      (2, 4096, 0.9, 0.0);
      (3, 4096, 1.3, 0.0);
      (4, 2048, 0.8, 0.01);
      (5, 8192, 1.1, 0.002);
    ];
  check_bool "grid evaluated" true (pooled.points > 200);
  let coverage = float_of_int pooled.covered /. float_of_int pooled.points in
  if coverage < 0.95 then
    Alcotest.failf "synthetic pooled coverage %.2f%% (%d/%d) below 95%%" (100. *. coverage)
      pooled.covered pooled.points

(* -- table/optimal shape and internal consistency -- *)

let test_table_shape () =
  let trace = Workload.data_trace (Registry.find "bcnt") in
  let prepared = Approx_dse.prepare (Sketch.of_trace trace) in
  let table = Approx_dse.table ~name:"bcnt" prepared in
  check_bool "default percents" true (table.Approx_dse.percents = Approx_dse.default_percents);
  check_int "budgets per percent" (List.length table.Approx_dse.percents)
    (List.length table.Approx_dse.budgets);
  List.iter
    (fun (depth, cells) ->
      check_bool "depth is a power of two" true (depth land (depth - 1) = 0);
      check_int "cells per row" (List.length table.Approx_dse.percents) (List.length cells);
      List.iter
        (fun (c : Approx_dse.cell) ->
          check_bool "bracket ordered" true
            (c.Approx_dse.assoc_lo <= c.Approx_dse.assoc
            && c.Approx_dse.assoc <= c.Approx_dse.assoc_hi))
        cells)
    table.Approx_dse.rows;
  (* trim keeps the first all-direct-mapped row and drops the rest,
     like the exact presentation rule *)
  let trimmed = Approx_dse.trim table in
  check_bool "trim never grows" true
    (List.length trimmed.Approx_dse.rows <= List.length table.Approx_dse.rows);
  let k = max 1 (int_of_float table.Approx_dse.max_misses.Approx_dse.est / 10) in
  let optimal = Approx_dse.optimal ~k prepared in
  check_int "k echoed" k optimal.Approx_dse.k;
  List.iter
    (fun (l : Approx_dse.level_estimate) ->
      check_int "depth = 2^level" (1 lsl l.Approx_dse.level) l.Approx_dse.depth;
      check_bool "miss bars ordered" true
        (l.Approx_dse.misses.Approx_dse.lo <= l.Approx_dse.misses.Approx_dse.est
        && l.Approx_dse.misses.Approx_dse.est <= l.Approx_dse.misses.Approx_dse.hi))
    optimal.Approx_dse.levels

(* -- daemon smoke: --method approx end to end, cached repeat identical -- *)

let temp_socket_path () =
  let path = Filename.temp_file "dse_approx" ".sock" in
  Sys.remove path;
  path

let test_daemon_approx_smoke () =
  let path = temp_socket_path () in
  let server =
    match
      Server.create ~log:(fun _ -> ())
        { Server.socket_path = path; tcp = None; node_id = None; workers = 2; max_pending = 16;
          cache_entries = 64; wal_path = None; hang_timeout = 30.; max_job_refs = None;
          memory_budget = Some (8 * 1024 * 1024);
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
    (fun () ->
      let socket = path in
      (* big enough that an exact submission (100 bytes/ref under the
         default arena pricing) blows the 8 MiB admission budget —
         approx is priced at the sketch's fixed footprint, so it passes
         where exact is rejected *)
      let trace = Synthetic.power_law ~seed:29 ~span:2048 ~skew:1.0 ~length:600_000 () in
      (match Client.submit ~socket ~name:"big" trace with
      | Error (Dse_error.Resource_exhausted _) -> ()
      | Error e -> Alcotest.failf "exact admission: wrong error %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.fail "exact submission should exceed the memory budget");
      let first =
        match Client.submit ~socket ~approx:true ~name:"big" trace with
        | Ok p -> p
        | Error e -> Alcotest.failf "approx submit: %s" (Dse_error.to_string e)
      in
      check_bool "cold miss" false first.Protocol.cache_hit;
      (match first.Protocol.outcome with
      | Protocol.Approx_table t ->
        check_int "n is the trace length" (Trace.length trace) t.Approx_dse.n
      | _ -> Alcotest.fail "expected an approx table");
      let second =
        match Client.submit ~socket ~approx:true ~name:"big" trace with
        | Ok p -> p
        | Error e -> Alcotest.failf "approx re-submit: %s" (Dse_error.to_string e)
      in
      check_bool "cached" true second.Protocol.cache_hit;
      (* bit-identical: every float crossed the wire as raw IEEE-754
         bits and the cached answer recomputes deterministically *)
      check_bool "bit-identical repeat" true (first.Protocol.outcome = second.Protocol.outcome);
      (* a K re-query of the same profile is answered from the cache *)
      let k_payload =
        match Client.submit ~socket ~approx:true ~k:50 ~name:"big" trace with
        | Ok p -> p
        | Error e -> Alcotest.failf "approx k-query: %s" (Dse_error.to_string e)
      in
      check_bool "k-query hits" true k_payload.Protocol.cache_hit;
      match k_payload.Protocol.outcome with
      | Protocol.Approx_optimal r -> check_int "k echoed" 50 r.Approx_dse.k
      | _ -> Alcotest.fail "expected an approx optimal")

let suites =
  [
    ( "approx:sketch",
      [
        Alcotest.test_case "HLL accuracy across decades" `Quick test_hll_accuracy;
        Alcotest.test_case "hybrid distinct counter" `Quick test_distinct_hybrid;
        Alcotest.test_case "space-saving guarantee" `Quick test_heavy_hitter_guarantee;
      ]
      @ hll_merge_props );
    ( "approx:che",
      [
        Alcotest.test_case "characteristic-time fixed point" `Quick test_che_fixed_point;
        Alcotest.test_case "zipf closed form" `Quick test_zipf_closed_form;
        Alcotest.test_case "power-law fit recovery" `Quick test_fit_recovery;
      ] );
    ( "approx:streaming",
      [
        Alcotest.test_case "iter matches load" `Quick test_iter_matches_load;
        Alcotest.test_case "write_binary_stream round-trip" `Quick
          test_write_binary_stream_roundtrip;
        Alcotest.test_case "sketch_file = sketch of loaded trace" `Quick
          test_sketch_file_matches_sketch_trace;
      ] );
    ( "approx:acceptance",
      [
        Alcotest.test_case "distinct_addrs_approx < 2% on PowerStone" `Slow
          test_distinct_approx_on_powerstone;
        Alcotest.test_case "bars cover exact: PowerStone" `Slow test_bars_cover_exact_powerstone;
        Alcotest.test_case "bars cover exact: synthetic zipf" `Slow
          test_bars_cover_exact_synthetic;
        Alcotest.test_case "table and optimal shape" `Quick test_table_shape;
      ] );
    ( "approx:daemon",
      [ Alcotest.test_case "approx submissions end to end" `Quick test_daemon_approx_smoke ] );
  ]
