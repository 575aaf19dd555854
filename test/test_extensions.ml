(* Tests for the extensions beyond the paper's core: line-size-aware
   analysis, filter-based trace reduction, the multicore postlude, and
   the synthetic trace generators. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let prop ?(count = 120) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_addresses = QCheck2.Gen.(array_size (int_range 1 250) (int_bound 127))

let gen_pow2 upper = QCheck2.Gen.map (fun k -> 1 lsl k) (QCheck2.Gen.int_bound upper)

(* -- line-size-aware analytical model -- *)

let prop_line_size_exact =
  prop "analytical with line_words = simulated non-cold misses"
    QCheck2.Gen.(quad gen_addresses (gen_pow2 4) (int_range 1 4) (gen_pow2 3))
    (fun (addrs, depth, associativity, line_words) ->
      let trace = Trace.of_addresses addrs in
      let prepared = Analytical.prepare ~line_words trace in
      let depth = min depth (1 lsl Analytical.max_level prepared) in
      let analytical = Analytical.misses prepared ~depth ~associativity in
      let sim =
        Cache.simulate (Config.make ~line_words ~depth ~associativity ()) trace
      in
      analytical = sim.Cache.misses)

let test_line_size_validation () =
  Alcotest.check_raises "line_words"
    (Invalid_argument "Analytical.prepare: line_words must be a positive power of two")
    (fun () -> ignore (Analytical.prepare ~line_words:3 (Trace.of_addresses [| 1 |])))

let test_line_size_folds_uniques () =
  (* words 0..7 fold to 2 lines of 4 words *)
  let trace = Trace.of_addresses [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let prepared = Analytical.prepare ~line_words:4 trace in
  check_int "unique lines" 2 (Analytical.stats prepared).Stats.n_unique

(* -- trace reduction -- *)

let test_reduce_basic () =
  let trace = Trace.of_addresses [| 0; 0; 0; 1; 1; 0 |] in
  let r = Reduce.filter ~depth:2 trace in
  (* 0 cold, 0 hit, 0 hit, 1 cold, 1 hit, 0 miss(row conflict? 0 and 1 in
     different rows of depth 2, so 0 still cached) -> hits: positions 2,3,5,6 *)
  check_int "kept" 2 (Trace.length r.Reduce.reduced);
  check_int "hits removed" 4 r.Reduce.filter_hits;
  check_bool "ratio" true (abs_float (Reduce.reduction_ratio r -. (2.0 /. 6.0)) < 1e-9)

let test_reduce_validation () =
  Alcotest.check_raises "depth"
    (Invalid_argument "Reduce.filter: depth must be a positive power of two") (fun () ->
      ignore (Reduce.filter ~depth:3 (Trace.create ())))

let prop_reduce_preserves_misses =
  prop "stripped trace preserves misses for caches >= filter depth"
    QCheck2.Gen.(quad gen_addresses (gen_pow2 3) (gen_pow2 2) (int_range 1 4))
    (fun (addrs, filter_depth, extra_depth, associativity) ->
      let trace = Trace.of_addresses addrs in
      let r = Reduce.filter ~depth:filter_depth trace in
      let depth = filter_depth * extra_depth in
      let config = Config.make ~depth ~associativity () in
      let original = Cache.simulate config trace in
      let reduced = Cache.simulate config r.Reduce.reduced in
      original.Cache.misses = reduced.Cache.misses
      && original.Cache.cold_misses = reduced.Cache.cold_misses)

let prop_reduce_preserves_analytical =
  prop "stripped trace preserves the analytical table at depths >= filter"
    QCheck2.Gen.(pair gen_addresses (gen_pow2 3))
    (fun (addrs, filter_depth) ->
      let trace = Trace.of_addresses addrs in
      let r = Reduce.filter ~depth:filter_depth trace in
      let level0 =
        let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
        log2 filter_depth 0
      in
      let table trace =
        let prepared = Analytical.prepare trace in
        let result = Analytical.explore_prepared prepared ~k:2 in
        Array.to_list result.Optimizer.levels
        |> List.filter (fun (l : Optimizer.level_result) -> l.Optimizer.level >= level0)
        |> List.map (fun (l : Optimizer.level_result) ->
               (l.Optimizer.level, l.Optimizer.min_associativity, l.Optimizer.misses))
      in
      (* the two traces can have different address_bits; compare on the
         common levels *)
      let a = table trace and b = table r.Reduce.reduced in
      let common = min (List.length a) (List.length b) in
      let take n xs = List.filteri (fun i _ -> i < n) xs in
      take common a = take common b)

let prop_reduce_keeps_uniques =
  prop "reduction keeps every unique address" gen_addresses (fun addrs ->
      let trace = Trace.of_addresses addrs in
      let r = Reduce.filter ~depth:4 trace in
      let uniques t = (Strip.strip t).Strip.uniques |> Array.to_list |> List.sort compare in
      uniques trace = uniques r.Reduce.reduced)

(* -- parallel exploration: the paper's "distributed sets" remark, as
   the same job run on several domains at once, each on its own
   domain-local one-pass stream (as [dse serve]'s workers run jobs),
   checked against the sequential materialized oracle. *)

let in_parallel ~domains trace =
  let records = Test_server.records_of trace in
  let runs =
    List.init domains (fun _ ->
        Domain.spawn (fun () -> snd (Analytical.stream_records records)))
  in
  let stripped = Strip.strip trace in
  (List.map Domain.join runs, Oracle.histograms stripped ~max_level:(Strip.address_bits stripped))

let prop_parallel_equals_sequential =
  prop ~count:60 "parallel histograms = sequential (1..5 domains)"
    QCheck2.Gen.(pair gen_addresses (int_range 1 5))
    (fun (addrs, domains) ->
      let par, seq = in_parallel ~domains (Trace.of_addresses addrs) in
      List.for_all (( = ) seq) par)

let test_parallel_real_trace () =
  let trace = Workload.data_trace (Registry.find "engine") in
  let stripped = Strip.strip trace in
  let seq = Oracle.dfs_explore stripped ~max_level:(Strip.address_bits stripped) ~k:50 in
  let par, _ = in_parallel ~domains:4 trace in
  List.iter
    (fun hists ->
      check_bool "same pairs" true
        (Optimizer.optimal_pairs seq
        = Optimizer.optimal_pairs (Optimizer.of_histograms ~k:50 hists)))
    par

let test_parallel_powerstone_histograms () =
  let par, seq = in_parallel ~domains:4 (Workload.data_trace (Registry.find "compress")) in
  List.iter (fun hists -> check_bool "histograms identical" true (seq = hists)) par

let test_parallel_degenerate () =
  let par, seq = in_parallel ~domains:8 (Trace.create ()) in
  List.iter
    (fun hists ->
      check_int "levels" 2 (Array.length hists);
      check_bool "matches the oracle" true (hists = seq))
    par

(* -- synthetic generators -- *)

let test_synthetic_sequential () =
  let t = Synthetic.sequential ~start:5 ~length:4 in
  Alcotest.(check (array int)) "addresses" [| 5; 6; 7; 8 |] (Trace.addresses t)

let test_synthetic_loop () =
  let t = Synthetic.loop ~base:0 ~body:3 ~iterations:2 in
  Alcotest.(check (array int)) "addresses" [| 0; 1; 2; 0; 1; 2 |] (Trace.addresses t);
  check_bool "fetch kind" true (Trace.equal_kind Trace.Fetch (Trace.kind t 0));
  (* a loop fits: zero non-cold misses once depth >= body *)
  let stats = Cache.simulate (Config.make ~depth:4 ~associativity:1 ()) t in
  check_int "loop fits" 0 stats.Cache.misses

let test_synthetic_strided_conflicts () =
  (* stride 8 with depth 8: every access maps to row 0 *)
  let t = Synthetic.strided ~base:0 ~stride:8 ~count:4 ~iterations:3 in
  let direct = Cache.simulate (Config.make ~depth:8 ~associativity:1 ()) t in
  check_int "all conflict" 8 direct.Cache.misses;
  let assoc = Cache.simulate (Config.make ~depth:8 ~associativity:4 ()) t in
  check_int "4 ways absorb the stride" 0 assoc.Cache.misses

let test_synthetic_hot_cold () =
  let t = Synthetic.hot_cold ~seed:7 ~hot:8 ~cold:1000 ~hot_percent:90 ~length:2000 in
  check_int "length" 2000 (Trace.length t);
  let hot_hits =
    Trace.fold (fun acc (a : Trace.access) -> if a.Trace.addr < 8 then acc + 1 else acc) 0 t
  in
  check_bool "mostly hot" true (hot_hits > 1500)

let test_synthetic_validation () =
  Alcotest.check_raises "length" (Invalid_argument "Synthetic: length must be positive")
    (fun () -> ignore (Synthetic.uniform ~seed:1 ~span:4 ~length:0));
  Alcotest.check_raises "hot_percent"
    (Invalid_argument "Synthetic: hot_percent must be within 0..100") (fun () ->
      ignore (Synthetic.hot_cold ~seed:1 ~hot:1 ~cold:1 ~hot_percent:101 ~length:1))

(* The zipf sampler's table is 8 B per address: a span past
   [Synthetic.max_span] is a typed refusal raised before the table (or a
   single draw) exists. Only spans that are refused are tried here. *)
let test_synthetic_span_limit () =
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s: span above the limit accepted" what
    | exception Dse_error.Error (Dse_error.Constraint_violation { context = "Synthetic"; _ }) -> ()
  in
  check_int "limit" (1 lsl 27) Synthetic.max_span;
  Synthetic.check_span Synthetic.max_span;
  refused "check_span" (fun () -> Synthetic.check_span (Synthetic.max_span + 1));
  refused "zipf_sampler" (fun () ->
      ignore (Synthetic.zipf_sampler ~seed:1 ~n:(Synthetic.max_span + 1) ~skew:0.8 : unit -> int));
  let drawn = ref 0 in
  refused "iter_power_law" (fun () ->
      Synthetic.iter_power_law ~seed:1 ~span:1_000_000_000 ~skew:0.01 ~churn:0.5 ~length:1_048_577
        (fun ~addr:_ ~kind:_ -> incr drawn));
  check_int "nothing drawn" 0 !drawn;
  refused "zipfian" (fun () ->
      ignore (Synthetic.zipfian ~seed:1 ~span:max_int ~skew:0.8 ~length:1))

let test_synthetic_deterministic () =
  let a = Synthetic.uniform ~seed:9 ~span:64 ~length:100 in
  let b = Synthetic.uniform ~seed:9 ~span:64 ~length:100 in
  check_bool "same" true (Trace.addresses a = Trace.addresses b)

let suites =
  [
    ( "extensions:line_size",
      [
        prop_line_size_exact;
        Alcotest.test_case "validation" `Quick test_line_size_validation;
        Alcotest.test_case "folds uniques" `Quick test_line_size_folds_uniques;
      ] );
    ( "extensions:reduce",
      [
        Alcotest.test_case "basic filtering" `Quick test_reduce_basic;
        Alcotest.test_case "validation" `Quick test_reduce_validation;
        prop_reduce_preserves_misses;
        prop_reduce_preserves_analytical;
        prop_reduce_keeps_uniques;
      ] );
    ( "extensions:parallel",
      [
        prop_parallel_equals_sequential;
        Alcotest.test_case "real trace" `Slow test_parallel_real_trace;
        Alcotest.test_case "PowerStone histograms x4" `Slow test_parallel_powerstone_histograms;
        Alcotest.test_case "degenerate inputs" `Quick test_parallel_degenerate;
      ] );
    ( "extensions:synthetic",
      [
        Alcotest.test_case "sequential" `Quick test_synthetic_sequential;
        Alcotest.test_case "loop" `Quick test_synthetic_loop;
        Alcotest.test_case "strided conflicts" `Quick test_synthetic_strided_conflicts;
        Alcotest.test_case "hot/cold mix" `Quick test_synthetic_hot_cold;
        Alcotest.test_case "validation" `Quick test_synthetic_validation;
        Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
        Alcotest.test_case "zipf span limit" `Quick test_synthetic_span_limit;
      ] );
  ]
