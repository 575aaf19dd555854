(* Tests for the end-to-end exploration drivers: the analytical flow
   must agree with the simulation baselines on real benchmark traces,
   and the produced instances must actually meet their miss budgets. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let data_trace name = Workload.data_trace (Registry.find name)

let instruction_trace name = Workload.instruction_trace (Registry.find name)

(* -- agreement between the analytical flow and the one-pass simulator -- *)

let agreement_case fetch kind name =
  Alcotest.test_case (Printf.sprintf "%s %s trace" name kind) `Slow (fun () ->
      let outcome = Compare.trace ~max_level:8 (fetch name) in
      Alcotest.(check string)
        "agreement" "agree"
        (if Compare.agree outcome then "agree" else Format.asprintf "%a" Compare.pp outcome))

let agreement_cases =
  List.map (agreement_case data_trace "data") [ "qurt"; "engine"; "blit"; "adpcm" ]
  @ List.map (agreement_case instruction_trace "instruction") [ "qurt"; "crc" ]

(* -- the paper's guarantee: produced instances meet the budget -- *)

let test_instances_meet_budget () =
  let trace = data_trace "engine" in
  let table = Analytical_dse.run ~max_level:6 ~name:"engine" trace in
  List.iter
    (fun (depth, assocs) ->
      List.iteri
        (fun column associativity ->
          let budget = List.nth table.Analytical_dse.budgets column in
          let misses = Simulated_dse.non_cold_misses trace ~depth ~associativity in
          check_bool
            (Printf.sprintf "depth %d col %d: %d misses within %d" depth column misses
               budget)
            true (misses <= budget))
        assocs)
    table.Analytical_dse.rows

(* -- minimality: one fewer way must violate the budget -- *)

let test_instances_minimal () =
  let trace = data_trace "blit" in
  let table = Analytical_dse.run ~max_level:6 ~name:"blit" trace in
  List.iter
    (fun (depth, assocs) ->
      List.iteri
        (fun column associativity ->
          if associativity > 1 then begin
            let budget = List.nth table.Analytical_dse.budgets column in
            let misses =
              Simulated_dse.non_cold_misses trace ~depth ~associativity:(associativity - 1)
            in
            check_bool
              (Printf.sprintf "depth %d: %d-way would miss the budget" depth
                 (associativity - 1))
              true (misses > budget)
          end)
        assocs)
    table.Analytical_dse.rows

(* -- baselines agree with each other -- *)

let test_exhaustive_equals_one_pass () =
  let trace = data_trace "qurt" in
  List.iter
    (fun depth ->
      List.iter
        (fun k ->
          check_int
            (Printf.sprintf "depth %d k %d" depth k)
            (Simulated_dse.min_associativity_one_pass trace ~depth ~k)
            (Simulated_dse.min_associativity_exhaustive trace ~depth ~k))
        [ 0; 10; 100 ])
    [ 1; 4; 16; 64 ]

(* -- table mechanics -- *)

let toy_table () =
  Analytical_dse.run ~name:"toy" (Paper_example.trace ())

let test_table_structure () =
  let table = toy_table () in
  check_int "budget count" 4 (List.length table.Analytical_dse.budgets);
  Alcotest.(check (list int)) "percents" [ 5; 10; 15; 20 ] table.Analytical_dse.percents;
  check_int "rows" 5 (List.length table.Analytical_dse.rows);
  Alcotest.(check (list int))
    "depths" [ 1; 2; 4; 8; 16 ]
    (List.map fst table.Analytical_dse.rows)

let test_table_trim () =
  let table = Analytical_dse.trim (toy_table ()) in
  (* associativity 1 is first sufficient at depth 16, the last row, so
     trimming keeps everything here *)
  Alcotest.(check (list int))
    "depths" [ 1; 2; 4; 8; 16 ]
    (List.map fst table.Analytical_dse.rows);
  let last = List.nth table.Analytical_dse.rows 4 in
  check_bool "last row all ones" true (List.for_all (fun a -> a = 1) (snd last))

let test_compare_detects_mismatch () =
  let table = toy_table () in
  let broken =
    {
      table with
      Analytical_dse.rows =
        List.map
          (fun (d, assocs) -> if d = 2 then (d, List.map (fun a -> a + 1) assocs) else (d, assocs))
          table.Analytical_dse.rows;
    }
  in
  let outcome = Compare.tables table broken in
  check_bool "disagree" false (Compare.agree outcome);
  check_int "four mismatches" 4 (List.length outcome.Compare.mismatches);
  check_int "all checked" 20 outcome.Compare.checked

let test_compare_shape_mismatch () =
  let table = toy_table () in
  let truncated = { table with Analytical_dse.rows = List.tl table.Analytical_dse.rows } in
  Alcotest.check_raises "shape" (Invalid_argument "Compare.tables: table shapes differ")
    (fun () -> ignore (Compare.tables table truncated))

let test_report_rendering () =
  let table = toy_table () in
  let text = Format.asprintf "%a" Report.pp_instances table in
  check_bool "mentions depth header" true
    (String.length text > 0
    &&
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec scan k = k + m <= n && (String.sub s k m = sub || scan (k + 1)) in
      scan 0
    in
    contains text "depth" && contains text "5%" && contains text "toy")

let test_csv_output () =
  let csv = Report.instances_to_csv (toy_table ()) in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  check_int "lines" 6 (List.length lines);
  Alcotest.(check string) "header" "depth,5%,10%,15%,20%" (List.hd lines)

let test_stats_report () =
  let rows = [ ("toy", Stats.compute (Paper_example.trace ())) ] in
  let text = Format.asprintf "%a" Report.pp_stats_table rows in
  check_bool "has benchmark" true (String.length text > 20)

(* -- codesign budget partitioning -- *)

let test_codesign_meets_budgets () =
  let bench = Registry.find "crc" in
  let itrace, dtrace = Workload.traces bench in
  let k_total = 4000 in
  let best = Codesign.partition ~steps:8 ~itrace ~dtrace ~k_total () in
  check_int "budgets sum" k_total (best.Codesign.k_instruction + best.Codesign.k_data);
  let misses trace (instance : Codesign.instance) =
    Simulated_dse.non_cold_misses trace ~depth:instance.Codesign.depth
      ~associativity:instance.Codesign.associativity
  in
  check_bool "instruction side meets its budget" true
    (misses itrace best.Codesign.instruction <= best.Codesign.k_instruction);
  check_bool "data side meets its budget" true
    (misses dtrace best.Codesign.data <= best.Codesign.k_data);
  check_int "total size consistent"
    best.Codesign.total_size
    (best.Codesign.instruction.Codesign.size_words + best.Codesign.data.Codesign.size_words)

let test_codesign_beats_naive_split () =
  let bench = Registry.find "crc" in
  let itrace, dtrace = Workload.traces bench in
  let k_total = 4000 in
  let sweep = Codesign.sweep ~steps:8 ~itrace ~dtrace ~k_total () in
  let best = Codesign.partition ~steps:8 ~itrace ~dtrace ~k_total () in
  check_bool "best is minimal over the sweep" true
    (List.for_all (fun c -> best.Codesign.total_size <= c.Codesign.total_size) sweep);
  check_int "sweep size" 9 (List.length sweep)

let test_codesign_validation () =
  let t = Paper_example.trace () in
  let violation message =
    Dse_error.Error (Dse_error.Constraint_violation { context = "codesign"; message })
  in
  Alcotest.check_raises "negative" (violation "negative budget") (fun () ->
      ignore (Codesign.sweep ~itrace:t ~dtrace:t ~k_total:(-1) ()));
  Alcotest.check_raises "steps" (violation "steps must be >= 1") (fun () ->
      ignore (Codesign.sweep ~steps:0 ~itrace:t ~dtrace:t ~k_total:1 ()))

(* [Codesign.partition] against a brute-force sweep by the definition:
   at every step, a fresh [Analytical.explore] per side, the smallest
   depth x ways over every level (the shallowest on a tie), and the
   smallest total (the earliest step on a tie). Each chosen instance
   must then meet its side's budget in the LRU simulator. *)
let brute_force_partition ~itrace ~dtrace ~k_total ~steps =
  let smallest trace ~k =
    let sizes =
      Array.map
        (fun (l : Optimizer.level_result) ->
          (l.Optimizer.depth * l.Optimizer.min_associativity, l.Optimizer.depth,
           l.Optimizer.min_associativity))
        (Analytical.explore trace ~k).Optimizer.levels
    in
    let size, depth, associativity = Array.fold_left min sizes.(0) sizes in
    { Codesign.depth; associativity; size_words = size }
  in
  let split step =
    let k_instruction = k_total * step / steps in
    let k_data = k_total - k_instruction in
    let instruction = smallest itrace ~k:k_instruction and data = smallest dtrace ~k:k_data in
    {
      Codesign.k_instruction;
      k_data;
      instruction;
      data;
      total_size = instruction.Codesign.size_words + data.Codesign.size_words;
    }
  in
  let candidates = List.init (steps + 1) split in
  List.fold_left
    (fun best c -> if c.Codesign.total_size < best.Codesign.total_size then c else best)
    (List.hd candidates) (List.tl candidates)

let codesign_brute_force_case name =
  Alcotest.test_case (name ^ ": partition = brute-force sweep, simulator-checked") `Slow
    (fun () ->
      let itrace, dtrace = Workload.traces (Registry.find name) in
      let k_total = 1000 and steps = 20 in
      let best = Codesign.partition ~itrace ~dtrace ~k_total () in
      check_bool "same split as the brute-force sweep" true
        (best = brute_force_partition ~itrace ~dtrace ~k_total ~steps);
      let simulated trace (instance : Codesign.instance) =
        (Cache.simulate
           (Config.make ~depth:instance.Codesign.depth
              ~associativity:instance.Codesign.associativity ())
           trace)
          .Cache.misses
      in
      check_bool "instruction side meets its budget under simulation" true
        (simulated itrace best.Codesign.instruction <= best.Codesign.k_instruction);
      check_bool "data side meets its budget under simulation" true
        (simulated dtrace best.Codesign.data <= best.Codesign.k_data))

let test_smallest_instance () =
  let prepared = Analytical.prepare (Paper_example.trace ()) in
  let instance = Codesign.smallest_instance prepared ~k:0 in
  (* candidates: 1x5, 2x3, 4x2, 8x2, 16x1 -> 1x5 is the smallest (5 words) *)
  check_int "depth" 1 instance.Codesign.depth;
  check_int "assoc" 5 instance.Codesign.associativity;
  check_int "size" 5 instance.Codesign.size_words

(* -- timing -- *)

let test_linear_fit_perfect () =
  let samples =
    List.map
      (fun (name, n, n', s) -> { Timing.name; n; n_unique = n'; seconds = s })
      [ ("a", 10, 10, 0.1); ("b", 100, 10, 1.0); ("c", 1000, 10, 10.0) ]
  in
  let slope, intercept, r2 = Timing.linear_fit samples in
  check_bool "slope" true (abs_float (slope -. 0.001) < 1e-9);
  check_bool "intercept" true (abs_float intercept < 1e-9);
  check_bool "r2" true (abs_float (r2 -. 1.0) < 1e-9)

let test_linear_fit_needs_samples () =
  Alcotest.check_raises "one sample" (Invalid_argument "Timing.linear_fit: need at least two samples")
    (fun () ->
      ignore (Timing.linear_fit [ { Timing.name = "x"; n = 1; n_unique = 1; seconds = 0.0 } ]))

let test_timing_sample () =
  let sample = Timing.analytical_sample ~name:"toy" (Paper_example.trace ()) in
  check_int "n" 10 sample.Timing.n;
  check_int "n'" 5 sample.Timing.n_unique;
  check_bool "time non-negative" true (sample.Timing.seconds >= 0.0);
  check_bool "work" true (Timing.work sample = 50.0)

let suites =
  [
    ("explorer:agreement", agreement_cases);
    ( "explorer:guarantee",
      [
        Alcotest.test_case "instances meet budget (simulated)" `Slow test_instances_meet_budget;
        Alcotest.test_case "instances are minimal" `Slow test_instances_minimal;
        Alcotest.test_case "exhaustive = one-pass baseline" `Slow test_exhaustive_equals_one_pass;
      ] );
    ( "explorer:tables",
      [
        Alcotest.test_case "structure" `Quick test_table_structure;
        Alcotest.test_case "trim" `Quick test_table_trim;
        Alcotest.test_case "compare detects mismatch" `Quick test_compare_detects_mismatch;
        Alcotest.test_case "compare shape mismatch" `Quick test_compare_shape_mismatch;
        Alcotest.test_case "report rendering" `Quick test_report_rendering;
        Alcotest.test_case "csv output" `Quick test_csv_output;
        Alcotest.test_case "stats report" `Quick test_stats_report;
      ] );
    ( "explorer:codesign",
      [
        Alcotest.test_case "meets both budgets" `Slow test_codesign_meets_budgets;
        Alcotest.test_case "minimal over sweep" `Slow test_codesign_beats_naive_split;
        Alcotest.test_case "validation" `Quick test_codesign_validation;
        Alcotest.test_case "smallest instance" `Quick test_smallest_instance;
      ]
      @ List.map codesign_brute_force_case [ "compress"; "ucbqsort"; "engine"; "des" ] );
    ( "explorer:timing",
      [
        Alcotest.test_case "linear fit" `Quick test_linear_fit_perfect;
        Alcotest.test_case "fit needs samples" `Quick test_linear_fit_needs_samples;
        Alcotest.test_case "sample" `Quick test_timing_sample;
      ] );
  ]
