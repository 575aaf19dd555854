(* Reproduction harness: regenerates every numeric table and figure of
   the paper (see DESIGN.md's per-experiment index) and runs the
   Bechamel micro-benchmarks (one Test.make per table).

     dune exec bench/main.exe            full reproduction + micro-benchmarks
     dune exec bench/main.exe -- --fast  skip the Bechamel section *)

let section title = Format.printf "@.==== %s ====@.@." title

let mb_of_words w = float_of_int (w * 8) /. 1048576.0

(* Traces are produced once and shared by every experiment. *)
let workloads : (string * Trace.t * Trace.t) list =
  List.map
    (fun (b : Workload.t) ->
      let itrace, dtrace = Workload.traces b in
      (b.Workload.name, itrace, dtrace))
    (Registry.all ())

let data_traces = List.map (fun (n, _, d) -> (n, d)) workloads

let instruction_traces = List.map (fun (n, i, _) -> (n, i)) workloads

(* -- E1: the running example, Tables 1-4 and Figure 3 -- *)

let running_example () =
  section "E1: running example (paper Tables 1-4, Figure 3)";
  let addresses =
    [| 0b1011; 0b1100; 0b0110; 0b0011; 0b1011; 0b0100; 0b1100; 0b0011; 0b1011; 0b0110 |]
  in
  let trace = Trace.of_addresses addresses in
  let stripped = Strip.strip trace in
  Format.printf "Table 1 (original trace): %d references@." (Strip.num_refs stripped);
  Format.printf "Table 2 (stripped trace): %d unique references:" (Strip.num_unique stripped);
  Array.iter (fun a -> Format.printf " %04X" a) stripped.Strip.uniques;
  Format.printf "@.";
  let zero_one = Zero_one.build stripped in
  Format.printf "Table 3 (zero/one sets, identifiers are 1-based as in the paper):@.";
  for bit = 0 to Zero_one.bits zero_one - 1 do
    let render s =
      String.concat "," (List.map (fun v -> string_of_int (v + 1)) (Bitset.elements s))
    in
    Format.printf "  B%d  Z={%s}  O={%s}@." bit
      (render (Zero_one.zero zero_one bit))
      (render (Zero_one.one zero_one bit))
  done;
  let mrct = Mrct.build stripped in
  Format.printf "Table 4 (MRCT):@.";
  for id = 0 to Strip.num_unique stripped - 1 do
    let sets =
      Array.to_list (Mrct.conflict_sets mrct id)
      |> List.map (fun set ->
             "{"
             ^ String.concat ","
                 (List.map (fun v -> string_of_int (v + 1)) (List.sort compare (Array.to_list set)))
             ^ "}")
    in
    Format.printf "  %d: {%s}@." (id + 1) (String.concat ", " sets)
  done;
  let bcat = Bcat.build zero_one in
  Format.printf "Figure 3 (BCAT levels):@.";
  for level = 0 to Bcat.max_level bcat do
    let sets =
      List.map
        (fun n ->
          "{"
          ^ String.concat "," (List.map (fun v -> string_of_int (v + 1)) (Array.to_list n.Bcat.ids))
          ^ "}")
        (Bcat.nodes_at_level bcat level)
    in
    Format.printf "  level %d (depth %d): %s@." level (1 lsl level)
      (String.concat " " (List.sort compare sets))
  done;
  let result = Analytical.explore trace ~k:0 in
  Format.printf "optimal zero-miss instances: ";
  List.iter (fun (d, a) -> Format.printf "(%d,%d) " d a) (Optimizer.optimal_pairs result);
  Format.printf "@."

(* -- E2/E3: Tables 5 and 6 -- *)

let stats_table title traces =
  section title;
  let rows = List.map (fun (name, trace) -> (name, Stats.compute trace)) traces in
  Format.printf "%a@." Report.pp_stats_table rows;
  rows

(* -- E4/E5: Tables 7-30 -- *)

let instance_tables title traces =
  section title;
  List.iter
    (fun (name, trace) ->
      let table = Analytical_dse.run ~name trace |> Analytical_dse.trim in
      Format.printf "%a@." Report.pp_instances table)
    traces

(* -- E6/E7/E8: Tables 31/32 and Figure 4 -- *)

let timing_table title traces =
  section title;
  Format.printf "%-10s %10s %10s %12s@." "benchmark" "N" "N'" "time (s)";
  let samples =
    List.map
      (fun (name, trace) ->
        let sample = Timing.analytical_sample ~repeats:3 ~name trace in
        Format.printf "%-10s %10d %10d %12.4f@." name sample.Timing.n sample.Timing.n_unique
          sample.Timing.seconds;
        sample)
      traces
  in
  Format.printf "@.";
  samples

let figure4 samples_with_traces =
  section "E8: Figure 4 (execution time vs N * N')";
  Format.printf "%-16s %14s %12s@." "benchmark" "N*N'" "time (s)";
  let samples = List.map fst samples_with_traces in
  let sorted = List.sort (fun a b -> compare (Timing.work a) (Timing.work b)) samples in
  List.iter
    (fun s -> Format.printf "%-16s %14.0f %12.4f@." s.Timing.name (Timing.work s) s.Timing.seconds)
    sorted;
  let slope, intercept, r2 = Timing.linear_fit samples in
  Format.printf "@.least-squares fit: time = %.3e * (N*N') + %.4f   r^2 = %.3f@." slope
    intercept r2;
  Format.printf "(the paper's claim: average-case linear in N * N'; N * N' is the@.";
  Format.printf " worst-case bound — the realised work is the MRCT volume times the@.";
  Format.printf " number of levels, fitted below as a sharper predictor)@.";
  (* Beyond the paper: fit against the realised work measure. *)
  let realised =
    List.map
      (fun ((s : Timing.sample), trace) ->
        let stripped = Strip.strip trace in
        let volume = Mrct.volume (Mrct.build stripped) in
        let levels = Strip.address_bits stripped + 1 in
        (* encode the realised work in a synthetic sample so the shared
           linear_fit applies: n * n_unique = volume * levels *)
        { s with Timing.n = volume; n_unique = levels })
      samples_with_traces
  in
  let slope', intercept', r2' = Timing.linear_fit realised in
  Format.printf "realised-work fit: time = %.3e * (volume*levels) + %.4f   r^2 = %.3f@."
    slope' intercept' r2';
  (* emit a gnuplot-ready data file; plot with bench/figure4.gp *)
  let oc = open_out "figure4.dat" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# benchmark  N*N'  seconds\n";
      List.iter
        (fun s -> Printf.fprintf oc "%-16s %14.0f %12.6f\n" s.Timing.name (Timing.work s) s.Timing.seconds)
        sorted);
  Format.printf "(series written to figure4.dat; render with gnuplot bench/figure4.gp)@."

(* -- E8b: controlled scaling study -- *)

let scaling_study () =
  section "E8b: controlled scaling (same kernel, growing input)";
  Format.printf
    "per-kernel run time at input scales 1/2/4 — within one kernel the trace@.";
  Format.printf "character is fixed, isolating the size dependence of Figure 4:@.@.";
  Format.printf "%-10s %12s %12s %12s@." "kernel" "scale 1 (s)" "scale 2 (s)" "scale 4 (s)";
  List.iter
    (fun make ->
      let time_at scale =
        let b : Workload.t = make ~scale in
        let dtrace = Workload.data_trace b in
        let sample = Timing.analytical_sample ~repeats:3 ~name:b.Workload.name dtrace in
        sample.Timing.seconds
      in
      let t1 = time_at 1 and t2 = time_at 2 and t4 = time_at 4 in
      let b1 : Workload.t = make ~scale:1 in
      Format.printf "%-10s %12.4f %12.4f %12.4f@." b1.Workload.name t1 t2 t4)
    [ Fir.make; Engine.make; Qurt.make ]

(* -- A1: line-size ablation -- *)

let ablation_line_size () =
  section "A1: line-size ablation (why the paper fixes line = 1 word)";
  let trace = List.assoc "fir" data_traces in
  Format.printf "fir data trace, depth 64, 2-way LRU:@.";
  Format.printf "%-12s %10s %12s %12s@." "line (words)" "cold" "misses" "total";
  List.iter
    (fun line_words ->
      let config = Config.make ~line_words ~depth:64 ~associativity:2 () in
      let s = Cache.simulate config trace in
      Format.printf "%-12d %10d %12d %12d@." line_words s.Cache.cold_misses s.Cache.misses
        (Cache.total_misses s))
    [ 1; 2; 4; 8; 16 ];
  Format.printf
    "@.line size changes the bus/memory interface, not just the cache, which is@.";
  Format.printf "why the analytical space of the paper varies only depth and ways.@."

(* -- A2: BCAT walk vs fused DFS -- *)

let ablation_dfs () =
  section "A2: ablation — materialised BCAT walk vs fused DFS (paper section 2.4)";
  let stripped = Strip.strip (List.assoc "engine" data_traces) in
  let max_level = Strip.address_bits stripped in
  let mrct = Mrct.build stripped in
  let k = 100 in
  let (bcat, bcat_result), bcat_time =
    Timing.time (fun () ->
        let bcat = Bcat.build ~max_level (Zero_one.build stripped) in
        (bcat, Optimizer.explore bcat mrct ~k))
  in
  let dfs_result, dfs_time =
    Timing.time (fun () ->
        Dfs_optimizer.explore ~addresses:stripped.Strip.uniques mrct ~max_level ~k)
  in
  Format.printf "results identical: %b@."
    (Optimizer.optimal_pairs bcat_result = Optimizer.optimal_pairs dfs_result);
  Format.printf "BCAT build + walk: %.4f s    fused DFS: %.4f s  (MRCT prebuilt for both)@."
    bcat_time dfs_time;
  Format.printf "materialised tree: %d nodes; the DFS variant allocates none@."
    (Bcat.node_count bcat)

(* -- A3: analytical flow vs traditional simulate-and-tune -- *)

let baseline_comparison () =
  section "A3: proposed flow (Fig 1b) vs traditional simulate-and-tune (Fig 1a)";
  let trace = List.assoc "engine" data_traces in
  let max_level = 8 in
  let analytical_table, analytical_time =
    Timing.time (fun () -> Analytical_dse.run ~max_level ~name:"analytical" trace)
  in
  let one_pass_table, one_pass_time =
    Timing.time (fun () -> Simulated_dse.table_one_pass ~max_level ~name:"one-pass" trace)
  in
  let stats = Stats.compute trace in
  let (), exhaustive_time =
    Timing.time (fun () ->
        List.iter
          (fun level ->
            let k = Stats.budget stats ~percent:5 in
            ignore (Simulated_dse.min_associativity_exhaustive trace ~depth:(1 lsl level) ~k))
          (List.init (max_level + 1) Fun.id))
  in
  let outcome = Compare.tables analytical_table one_pass_table in
  Format.printf "engine data trace, depths 1..%d:@." (1 lsl max_level);
  Format.printf "  analytical (4 budgets at once):      %.4f s@." analytical_time;
  Format.printf "  Mattson one-pass (4 budgets):        %.4f s@." one_pass_time;
  Format.printf "  naive resimulation (1 budget only):  %.4f s@." exhaustive_time;
  Format.printf "  agreement: %a@." Compare.pp outcome

(* -- A4: Mattson crosscheck -- *)

let mattson_crosscheck () =
  section "A4: Mattson stack simulation crosscheck (paper reference [17])";
  let trace = List.assoc "ucbqsort" data_traces in
  let points = ref 0 and agreements = ref 0 in
  List.iter
    (fun depth ->
      let result = Stack_sim.run ~depth trace in
      List.iter
        (fun associativity ->
          incr points;
          let sim = Cache.simulate (Config.make ~depth ~associativity ()) trace in
          if Stack_sim.misses result ~associativity = sim.Cache.misses then incr agreements)
        [ 1; 2; 4; 8 ])
    [ 1; 4; 16; 64; 256 ];
  Format.printf "ucbqsort data trace: stack distances = full simulation on %d/%d points@."
    !agreements !points

(* -- A5: cost model + Pareto selection (future-work extension) -- *)

let pareto_section () =
  section "A5: extension — cost models and Pareto selection over the optimal set";
  let trace = List.assoc "adpcm" data_traces in
  let stats = Stats.compute trace in
  let k = Stats.budget stats ~percent:10 in
  let points = Pareto.candidates trace ~k in
  let frontier = Pareto.frontier points in
  Format.printf "adpcm data trace, K = %d:@." k;
  List.iter
    (fun p ->
      Format.printf "%s %a@." (if List.memq p frontier then "*" else " ") Pareto.pp_point p)
    points;
  Format.printf "Pareto-optimal: %d of %d instances@." (List.length frontier)
    (List.length points)

(* -- A6: trace reduction (related work [14][15]) -- *)

let reduction_section () =
  section "A6: trace stripping by cache filtering (related work [14][15])";
  (* filter with a realistic 4-word line: sequential fetches hit within
     the line, which is where stripping earns its keep *)
  let line_words = 4 in
  Format.printf "%-10s %10s %10s %8s %14s@." "benchmark" "original" "stripped" "ratio"
    "tables equal";
  List.iter
    (fun name ->
      let trace = List.assoc name instruction_traces in
      let r = Reduce.filter ~depth:4 ~line_words trace in
      (* identical (assoc, misses) per level >= 2 at a fixed absolute
         budget — the stripping guarantee *)
      let solve t =
        let result = Analytical.explore ~line_words t ~k:50 in
        Array.to_list result.Optimizer.levels
        |> List.filter (fun (l : Optimizer.level_result) -> l.Optimizer.level >= 2)
        |> List.map (fun (l : Optimizer.level_result) ->
               (l.Optimizer.min_associativity, l.Optimizer.misses))
      in
      let equal_above = solve trace = solve r.Reduce.reduced in
      Format.printf "%-10s %10d %10d %7.1f%% %14b@." name r.Reduce.original_length
        (Trace.length r.Reduce.reduced)
        (100.0 *. Reduce.reduction_ratio r)
        equal_above)
    [ "bcnt"; "crc"; "fir"; "engine" ];
  Format.printf
    "@.(filter: depth 4, 4-word lines — miss-equivalent for every cache of depth >= 4@.";
  Format.printf " with the same line size; budgets recomputed on the stripped trace)@."

(* -- A11: the arena kernel vs the materialized oracle -- *)

let materialized_histograms stripped ~max_level =
  Dfs_optimizer.histograms ~addresses:stripped.Strip.uniques (Mrct.build stripped) ~max_level

let oracle_section () =
  section "A11: arena kernel vs materialized MRCT oracle (identical histograms)";
  Format.printf "%-10s %14s %14s@." "benchmark" "materialized" "arena";
  List.iter
    (fun (name, trace) ->
      let stripped = Strip.strip trace in
      let max_level = Strip.address_bits stripped in
      let materialized, tm =
        Timing.time_wall (fun () -> materialized_histograms stripped ~max_level)
      in
      let arena, ta =
        Timing.time_wall (fun () -> Analytical.histograms (Analytical.prepare trace))
      in
      if materialized <> arena then failwith (Printf.sprintf "A11: %s histograms diverge" name);
      Format.printf "%-10s %12.4f s %12.4f s@." name tm ta)
    data_traces

(* -- A12: the arena kernel at 10M references, and against the oracle -- *)

type large_result = {
  large_n : int;
  large_n' : int;
  arena_s : float;  (* median of [arena_runs] *)
  arena_min_s : float;
  arena_max_s : float;
  arena_minor_words : float;
  arena_peak_mb : float;
  oracle_n : int;
  mrct_words : int;
  materialized_s : float;
  oracle_arena_s : float;
  oracle_heap_mb : float;
}

let large_trace_section () =
  section "A12: 10M-reference loop nest on the arena kernel, and arena = oracle at 250K";
  (* a loop nest over 48 lines: every warm occurrence carries a 47-wide
     conflict set, so a materialized table would be ~470M words while
     the fused kernel keeps just its slot state *)
  let loop_nest refs = Synthetic.loop ~base:0 ~body:48 ~iterations:((refs + 47) / 48) in
  let trace = loop_nest 10_000_000 in
  (* one stream run over the trace in memory: intern and step together;
     its minor words are the first run's *)
  let minor_before = Gc.minor_words () in
  let prepared, first_s = Timing.time_wall (fun () -> Analytical.prepare trace) in
  let arena_minor_words = Gc.minor_words () -. minor_before in
  let max_level = Analytical.max_level prepared in
  let { Stats.n; n_unique = n'; _ } = Analytical.stats prepared in
  Format.printf "N = %d, N' = %d, %d levels@." n n' (max_level + 1);
  (* [top_heap_words] is monotone over the process lifetime, so this
     section runs before any other allocates: the heap holds the
     10M-reference trace and little else *)
  let arena_peak_mb = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  (* the wall time is the median of five runs, with its spread, so a
     reader can see how far a change moved it against the host's noise *)
  let rerun _ = snd (Timing.time_wall (fun () -> Analytical.prepare trace)) in
  let times = List.sort compare (first_s :: List.init 4 rerun) in
  let arena_s = List.nth times 2 in
  let arena_min_s = List.hd times and arena_max_s = List.nth times 4 in
  Format.printf "arena: %8.3f s median of 5 (%.3f-%.3f s; %.0f minor words, intern + step)@."
    arena_s arena_min_s arena_max_s arena_minor_words;
  Format.printf "peak heap: %.1f MB (the trace; the kernel's state is off-heap)@." arena_peak_mb;
  (* the occurrence loop and every compaction are allocation-free:
     storing even one word per warm occurrence would show up as >= 10M
     minor words, and one per compaction as ~20K on this loop nest *)
  if arena_minor_words > 1e4 then
    failwith (Printf.sprintf "A12: arena kernel allocated %.0f minor words" arena_minor_words);
  (* oracle phase: a prefix of the same loop nest small enough for the
     O(N * N') table — ~50 boxed words per reference once it is built *)
  let oracle_trace = loop_nest 250_000 in
  Gc.compact ();
  let oracle_arena, oracle_arena_s =
    Timing.time_wall (fun () ->
        Analytical.histograms (Analytical.prepare ~max_level oracle_trace))
  in
  let (materialized, mrct_words, oracle_heap_mb), materialized_s =
    Timing.time_wall (fun () ->
        let stripped = Strip.strip oracle_trace in
        let mrct = Mrct.build stripped in
        (* sampled while the table is live: the phase's working set *)
        ( Dfs_optimizer.histograms ~addresses:stripped.Strip.uniques mrct ~max_level,
          Mrct.volume mrct + Mrct.total_sets mrct,
          mb_of_words (Gc.quick_stat ()).Gc.heap_words ))
  in
  let oracle_n = Trace.length oracle_trace in
  Format.printf "oracle, N = %d: materialized MRCT + DFS %.3f s (%d words, heap %.1f MB)@."
    oracle_n materialized_s mrct_words oracle_heap_mb;
  Format.printf "              arena %.3f s (%.1fx faster)@." oracle_arena_s
    (materialized_s /. oracle_arena_s);
  if oracle_arena <> materialized then failwith "A12: arena histograms diverge from the oracle";
  if oracle_heap_mb > 256. then
    failwith (Printf.sprintf "A12: oracle phase heap %.1f MB exceeds 256 MB" oracle_heap_mb);
  if oracle_arena_s >= materialized_s then
    failwith
      (Printf.sprintf "A12: arena (%.3f s) did not beat materialized (%.3f s)" oracle_arena_s
         materialized_s);
  {
    large_n = n;
    large_n' = n';
    arena_s;
    arena_min_s;
    arena_max_s;
    arena_minor_words;
    arena_peak_mb;
    oracle_n;
    mrct_words;
    materialized_s;
    oracle_arena_s;
    oracle_heap_mb;
  }

(* -- A17: approximate DSE — one-pass sketch vs the exact arena kernel
   on a 10M-reference power-law trace -- *)

type approx_result = {
  approx_n : int;
  approx_span : int;
  approx_distinct : float;
  approx_alpha : float;
  approx_fit_r2 : float;
  sketch_s : float;
  sketch_minor_words : float;
  estimate_s : float;
  exact_s : float;
  sketch_state_bytes : int;
  exact_arena_bytes : int;
  grid_points : int;
  grid_covered : int;
  mean_rate_err : float;
}

let approx_section () =
  section "A17: 10M-reference power-law trace — one-pass sketch + Che/Fagin vs exact arena";
  let n = 10_000_000 and span = 2_048 and skew = 0.8 and seed = 11 in
  (* the trace goes to disk first: the streaming pass must see a file,
     not a materialised array, or the memory claim is circular *)
  let path = Filename.temp_file "dse_bench_a17" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Trace_io.write_binary_stream oc ~length:n
            (Synthetic.iter_power_law ~seed ~span ~skew ~length:n));
      let sk = Sketch.create () in
      let minor_before = Gc.minor_words () in
      let (), sketch_s =
        Timing.time_wall (fun () ->
            match Trace_io.iter ~format:`Binary path (Sketch.feed sk) with
            | Ok _ -> ()
            | Error e -> failwith ("A17: sketch pass failed: " ^ Dse_error.to_string e))
      in
      let sketch_minor_words = Gc.minor_words () -. minor_before in
      let sketch_state_bytes = Sketch.state_bytes sk in
      let profile = Sketch.finalize sk in
      let (prepared, table), estimate_s =
        Timing.time_wall (fun () ->
            let prepared = Approx_dse.prepare profile in
            (prepared, Approx_dse.table ~name:"powerlaw" prepared))
      in
      (* the exact side takes the path `dse explore` takes: one pass
         over the same file, decode included *)
      let exact, exact_s =
        Timing.time_wall (fun () ->
            match Analytical.stream_file ~format:`Binary path with
            | Ok exact -> exact
            | Error e -> failwith ("A17: exact pass failed: " ^ Dse_error.to_string e))
      in
      let hists = exact.Analytical.histograms and exact_arena_bytes = exact.Analytical.arena_bytes in
      let max_level = Array.length hists - 1 in
      let points = ref 0 and covered = ref 0 and rate_err_sum = ref 0. in
      for level = 0 to max_level do
        List.iter
          (fun assoc ->
            let exact =
              float_of_int (Optimizer.misses_of_histogram hists.(level) ~associativity:assoc)
            in
            let b = Approx_dse.misses prepared ~depth:(1 lsl level) ~assoc in
            incr points;
            if exact >= b.Approx_dse.lo -. 1e-9 && exact <= b.Approx_dse.hi +. 1e-9 then
              incr covered;
            (* miss-RATE error |est - exact| / N, the MRC-literature
               metric: a ratio against per-point exact counts explodes
               at fitting configurations where exact = 0 but the
               placement model hedges with a small positive estimate *)
            rate_err_sum :=
              !rate_err_sum +. (Float.abs (b.Approx_dse.est -. exact) /. float_of_int n))
          [ 1; 2; 4; 8; 16 ]
      done;
      let mean_rate_err = !rate_err_sum /. float_of_int (max 1 !points) in
      Format.printf "N = %d over %d addresses, zipf(%.1f): fitted alpha %.3f (r2 %.3f)@." n
        span skew table.Approx_dse.alpha table.Approx_dse.fit_r2;
      Format.printf "sketch pass:        %8.3f s  (%d-byte state, %.0f minor words)@." sketch_s
        sketch_state_bytes sketch_minor_words;
      Format.printf "estimate (table):   %8.3f s@." estimate_s;
      Format.printf "exact arena:        %8.3f s  (%.1fx; %d bytes of arenas)@." exact_s
        (exact_s /. (sketch_s +. estimate_s)) exact_arena_bytes;
      Format.printf "bars cover exact:   %d/%d grid points (mean miss-rate error %.3f%%)@."
        !covered !points (100. *. mean_rate_err);
      (* the subsystem's contract: bars may be wide, not wrong, and
         state is O(kilobytes) whatever N. The walls gate the exact
         kernel: on this shape it beats the sketch plus the estimate,
         and a kernel change that gives that up is a regression *)
      if !covered * 100 < !points * 95 then
        failwith
          (Printf.sprintf "A17: bars cover only %d/%d exact points (need 95%%)" !covered
             !points);
      if sketch_state_bytes > 10 * 1024 * 1024 then
        failwith
          (Printf.sprintf "A17: sketch state %d bytes exceeds the 10 MB ceiling"
             sketch_state_bytes);
      if exact_s >= sketch_s +. estimate_s then
        failwith
          (Printf.sprintf "A17: exact (%.3f s) did not beat sketch + estimate (%.3f s)" exact_s
             (sketch_s +. estimate_s));
      {
        approx_n = n;
        approx_span = span;
        approx_distinct = profile.Sketch.distinct;
        approx_alpha = table.Approx_dse.alpha;
        approx_fit_r2 = table.Approx_dse.fit_r2;
        sketch_s;
        sketch_minor_words;
        estimate_s;
        exact_s;
        sketch_state_bytes;
        exact_arena_bytes;
        grid_points = !points;
        grid_covered = !covered;
        mean_rate_err;
      })

(* -- A13: serving layer — cold vs cached latency, concurrent clients -- *)

type server_result = {
  cold_s : float;
  warm_s : float;
  clients : int;
  requests : int;
  throughput_rps : float;
  p50_s : float;
  p99_s : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1 |> max 0))

let server_section () =
  section "A13: serving layer — result-cache speedup and concurrent loopback clients";
  let socket = Filename.temp_file "dse_bench" ".sock" in
  Sys.remove socket;
  let server =
    match
      Server.create ~log:(fun _ -> ())
        { Server.socket_path = socket; tcp = None; node_id = None; workers = 4;
          max_pending = 64; cache_entries = Result_cache.default_capacity;
          wal_path = None; hang_timeout = 30.; max_job_refs = None; memory_budget = None;
          peers = []; replication = 2; replication_queue = 256; anti_entropy = false }
    with
    | Ok s -> s
    | Error e -> failwith ("A13: " ^ Dse_error.to_string e)
  in
  let runner = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join runner;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      (* cold vs warm: same submission repeated; every resubmit is
         answered from the content-addressed cache without touching the
         kernel. A wide loop body (N' = 4096) keeps the kernel work
         dominant over the fixed wire cost of shipping the
         64K-reference trace; warm latency is the median of several
         resubmits (the first one still carries the cold run's GC debt). *)
      let trace = Synthetic.loop ~base:0 ~body:4096 ~iterations:16 in
      let submit () =
        match Client.submit ~socket ~name:"a13" trace with
        | Ok payload -> payload
        | Error e -> failwith ("A13 submit: " ^ Dse_error.to_string e)
      in
      let cold_payload, cold_s = Timing.time_wall submit in
      assert (not cold_payload.Protocol.cache_hit);
      let warm_times =
        List.init 5 (fun _ ->
            let payload, dt = Timing.time_wall submit in
            assert payload.Protocol.cache_hit;
            assert (cold_payload.Protocol.outcome = payload.Protocol.outcome);
            dt)
      in
      let warm_s = List.nth (List.sort compare warm_times) 2 in
      Format.printf
        "cold submit: %.4f s    cached resubmit (median of 5): %.4f s    speedup %.1fx@."
        cold_s warm_s (cold_s /. warm_s);
      if warm_s *. 10.0 >= cold_s then
        failwith
          (Printf.sprintf "A13: cached resubmit (%.4f s) not 10x faster than cold (%.4f s)"
             warm_s cold_s);
      (* 8 concurrent clients hammering the same workload: after the first
         miss every request is a cache hit, measuring the serving path *)
      let compress = List.assoc "compress" data_traces in
      ignore
        (match Client.submit ~socket ~name:"compress" compress with
        | Ok p -> p
        | Error e -> failwith ("A13 prime: " ^ Dse_error.to_string e));
      let clients = 8 and per_client = 16 in
      let run_client () =
        Array.init per_client (fun _ ->
            let _, dt =
              Timing.time_wall (fun () ->
                  match Client.submit ~socket ~name:"compress" compress with
                  | Ok p -> assert p.Protocol.cache_hit
                  | Error e -> failwith ("A13 client: " ^ Dse_error.to_string e))
            in
            dt)
      in
      let latencies, elapsed =
        Timing.time_wall (fun () ->
            let domains = List.init clients (fun _ -> Domain.spawn run_client) in
            Array.concat (List.map Domain.join domains))
      in
      Array.sort compare latencies;
      let requests = clients * per_client in
      let throughput = float_of_int requests /. elapsed in
      let p50 = percentile latencies 0.50 and p99 = percentile latencies 0.99 in
      Format.printf
        "%d clients x %d requests: %.0f req/s    p50 %.2f ms    p99 %.2f ms@."
        clients per_client throughput (p50 *. 1e3) (p99 *. 1e3);
      {
        cold_s;
        warm_s;
        clients;
        requests;
        throughput_rps = throughput;
        p50_s = p50;
        p99_s = p99;
      })

(* -- A14: self-healing — WAL-warm restart and coalesced bursts -- *)

type selfheal_result = {
  cold_start_to_answer_s : float;
  warm_start_to_answer_s : float;
  wal_records : int;
  burst_clients : int;
  burst_s : float;
  burst_rps : float;
  kernel_runs : int;
  coalesced : int;
}

let selfheal_section () =
  section "A14: self-healing — WAL-warm restart latency and single-flight bursts";
  let socket = Filename.temp_file "dse_bench14" ".sock" in
  Sys.remove socket;
  let wal = Filename.temp_file "dse_bench14" ".wal" in
  Sys.remove wal;
  let kernel_runs = Atomic.make 0 in
  let config =
    { Server.socket_path = socket; tcp = None; node_id = None; workers = 4;
      max_pending = 64; cache_entries = Result_cache.default_capacity;
      wal_path = Some wal; hang_timeout = 30.; max_job_refs = None; memory_budget = None;
      peers = []; replication = 2; replication_queue = 256; anti_entropy = false }
  in
  let start () =
    match
      Server.create ~on_job_start:(fun () -> Atomic.incr kernel_runs) ~log:(fun _ -> ()) config
    with
    | Ok s ->
      let runner = Domain.spawn (fun () -> Server.run s) in
      (s, runner)
    | Error e -> failwith ("A14: " ^ Dse_error.to_string e)
  in
  let stop (s, runner) =
    Server.stop s;
    Domain.join runner
  in
  let submit ~name trace =
    match Client.submit ~socket ~name trace with
    | Ok payload -> payload
    | Error e -> failwith ("A14 submit: " ^ Dse_error.to_string e)
  in
  let trace = Synthetic.loop ~base:0 ~body:4096 ~iterations:16 in
  (* cold: fresh daemon, empty WAL — the first answer pays the kernel *)
  let cold_payload, cold_start_to_answer_s =
    Timing.time_wall (fun () ->
        let server = start () in
        let payload = submit ~name:"a14" trace in
        stop server;
        payload)
  in
  assert (not cold_payload.Protocol.cache_hit);
  (* warm: same WAL replayed on startup — the first answer is a cache
     hit a kill -9'd daemon would serve identically, since every append
     hit the log before the reply went out *)
  let warm_payload, warm_start_to_answer_s =
    Timing.time_wall (fun () ->
        let server = start () in
        let payload = submit ~name:"a14" trace in
        stop server;
        payload)
  in
  if not warm_payload.Protocol.cache_hit then failwith "A14: restart did not answer warm";
  if cold_payload.Protocol.outcome <> warm_payload.Protocol.outcome then
    failwith "A14: WAL-warm answer diverges from the cold one";
  let wal_records =
    match Wal.replay wal with
    | Ok r -> r.Wal.intact
    | Error e -> failwith ("A14 wal: " ^ Dse_error.to_string e)
  in
  (* coalesced burst: concurrent identical submissions of an uncached
     trace must elect one leader; everyone gets the same answer for one
     kernel run *)
  let burst_trace = Synthetic.loop ~base:(1 lsl 20) ~body:4096 ~iterations:16 in
  let server = start () in
  let runs_before = Atomic.get kernel_runs in
  let burst_clients = 8 in
  let outcomes, burst_s =
    Timing.time_wall (fun () ->
        List.init burst_clients (fun _ ->
            Domain.spawn (fun () -> submit ~name:"a14-burst" burst_trace))
        |> List.map Domain.join)
  in
  let coalesced =
    match Client.health ~socket with
    | Ok h -> h.Protocol.coalesced_hits
    | Error e -> failwith ("A14 health: " ^ Dse_error.to_string e)
  in
  stop server;
  Sys.remove wal;
  if Sys.file_exists socket then Sys.remove socket;
  let kernel_runs = Atomic.get kernel_runs - runs_before in
  let reference = List.hd outcomes in
  List.iter
    (fun (p : Protocol.result_payload) ->
      if p.Protocol.outcome <> reference.Protocol.outcome then
        failwith "A14: burst answers diverge")
    outcomes;
  let burst_rps = float_of_int burst_clients /. burst_s in
  Format.printf "start-to-answer: cold %.4f s    WAL-warm %.4f s    (%d record(s) replayed)@."
    cold_start_to_answer_s warm_start_to_answer_s wal_records;
  Format.printf "burst of %d identical submissions: %.4f s (%.0f req/s), %d kernel run(s), %d coalesced@."
    burst_clients burst_s burst_rps kernel_runs coalesced;
  {
    cold_start_to_answer_s;
    warm_start_to_answer_s;
    wal_records;
    burst_clients;
    burst_s;
    burst_rps;
    kernel_runs;
    coalesced;
  }

(* -- A15: supervision — hang recovery latency, shed-mode burst -- *)

type supervision_result = {
  hang_timeout_s : float;
  stall_detect_s : float;
  recovery_submit_s : float;
  burst_jobs : int;
  burst_accepted : int;
  burst_shed : int;
  burst_rejected_full : int;
  burst_s : float;
  accepted_rps : float;
}

let supervision_section () =
  section "A15: supervision — watchdog time-to-recovery and shed-mode burst throughput";
  let socket = Filename.temp_file "dse_bench15" ".sock" in
  Sys.remove socket;
  let start ~workers ~max_pending ~hang_timeout =
    let config =
      { Server.socket_path = socket; tcp = None; node_id = None; workers; max_pending;
        cache_entries = Result_cache.default_capacity; wal_path = None;
        hang_timeout; max_job_refs = None; memory_budget = None;
        peers = []; replication = 2; replication_queue = 256; anti_entropy = false }
    in
    match Server.create ~log:(fun _ -> ()) config with
    | Ok s ->
      let runner = Domain.spawn (fun () -> Server.run s) in
      (s, runner)
    | Error e -> failwith ("A15: " ^ Dse_error.to_string e)
  in
  let stop (s, runner) =
    Server.stop s;
    Domain.join runner
  in
  (* time-to-recovery: a wedged worker (an injected hang at the start of
     its kernel run) is detected, abandoned and answered; the
     replacement then serves the identical resubmission. A small trace
     keeps the rerun cheap. *)
  let hang_timeout = 0.5 in
  let hang_trace = Synthetic.loop ~base:0 ~body:256 ~iterations:64 in
  let server = start ~workers:1 ~max_pending:16 ~hang_timeout in
  Fault.set (Fault.parse "hang");
  let stall_detect_s =
    let result, seconds =
      Timing.time_wall (fun () -> Client.submit ~socket ~name:"a15" hang_trace)
    in
    (match result with
    | Error (Dse_error.Worker_stalled _) -> ()
    | Error e -> failwith ("A15 stall: " ^ Dse_error.to_string e)
    | Ok _ -> failwith "A15: hung job produced a result");
    seconds
  in
  let recovery_submit_s =
    let result, seconds =
      Timing.time_wall (fun () -> Client.submit ~socket ~name:"a15" hang_trace)
    in
    (match result with
    | Ok _ -> ()
    | Error e -> failwith ("A15 recovery: " ^ Dse_error.to_string e));
    seconds
  in
  Fault.set None;
  Fault.release_hangs ();
  stop server;
  Format.printf
    "hang-timeout %.2f s: stall answered in %.4f s, replacement served the resubmit in %.4f s@."
    hang_timeout stall_detect_s recovery_submit_s;
  (* shed-mode burst: 4x queue capacity of heavy jobs (a kernel shard
     of references, ~0.5 s of kernel each — enough service time
     to back the queue up past its watermark) against a small pool. The
     daemon sheds instead of queueing; everything it accepts it
     answers. *)
  let workers = 2 and max_pending = 8 in
  let server = start ~workers ~max_pending ~hang_timeout:30. in
  let burst_jobs = 4 * max_pending in
  let replies, burst_s =
    Timing.time_wall (fun () ->
        List.init burst_jobs (fun i ->
            Domain.spawn (fun () ->
                Client.submit ~socket ~name:(Printf.sprintf "a15-burst-%d" i)
                  (Synthetic.loop ~base:(i lsl 20) ~body:1024 ~iterations:68)))
        |> List.map Domain.join)
  in
  let shed =
    match Client.health ~socket with
    | Ok h -> h.Protocol.shed
    | Error e -> failwith ("A15 health: " ^ Dse_error.to_string e)
  in
  stop server;
  if Sys.file_exists socket then Sys.remove socket;
  let accepted =
    List.length (List.filter (function Ok _ -> true | Error _ -> false) replies)
  in
  List.iter
    (function
      | Ok _ | Error (Dse_error.Queue_full _) -> ()
      | Error e -> failwith ("A15 burst: " ^ Dse_error.to_string e))
    replies;
  if accepted = 0 then failwith "A15: shed-mode burst answered nothing";
  let burst_rejected_full = burst_jobs - accepted - shed in
  let accepted_rps = float_of_int accepted /. burst_s in
  Format.printf
    "burst of %d heavy jobs over %d workers / queue %d: %d answered, %d shed, %d full, %.4f s (%.0f accepted req/s)@."
    burst_jobs workers max_pending accepted shed burst_rejected_full burst_s accepted_rps;
  {
    hang_timeout_s = hang_timeout;
    stall_detect_s;
    recovery_submit_s;
    burst_jobs;
    burst_accepted = accepted;
    burst_shed = shed;
    burst_rejected_full;
    burst_s;
    accepted_rps;
  }

(* -- A16: multi-node routing -- *)

type router_result = {
  fleet_nodes : int;
  distinct_traces : int;
  mix_requests : int;
  single_node_rps : float;
  fleet_rps : float;
  locality_hit_rate : float;
  kill_requests : int;
  kill_failures : int;
  kill_failovers : int;
  max_failover_latency_s : float;
}

let router_section () =
  section "A16: routing — aggregate throughput 1 vs 3 nodes, cache locality, failover latency";
  let start_backend () =
    let socket = Filename.temp_file "dse_bench16b" ".sock" in
    Sys.remove socket;
    let config =
      { Server.socket_path = socket; tcp = None; node_id = None; workers = 2; max_pending = 32;
        cache_entries = Result_cache.default_capacity; wal_path = None; hang_timeout = 30.;
        max_job_refs = None; memory_budget = None;
        peers = []; replication = 2; replication_queue = 256; anti_entropy = false }
    in
    match Server.create ~log:(fun _ -> ()) config with
    | Ok s -> (socket, s, Domain.spawn (fun () -> Server.run s))
    | Error e -> failwith ("A16 backend: " ^ Dse_error.to_string e)
  in
  let stop_backend (socket, s, runner) =
    Server.stop s;
    Domain.join runner;
    if Sys.file_exists socket then Sys.remove socket
  in
  let start_router backends =
    let listen = Filename.temp_file "dse_bench16r" ".sock" in
    Sys.remove listen;
    let config = { Router.default_config with Router.listen; backends } in
    match Router.create ~log:(fun _ -> ()) config with
    | Ok r -> (listen, r, Domain.spawn (fun () -> Router.run r))
    | Error e -> failwith ("A16 router: " ^ Dse_error.to_string e)
  in
  let stop_router (listen, r, runner) =
    Router.stop r;
    Domain.join runner;
    if Sys.file_exists listen then Sys.remove listen
  in
  (* the client mix: a zipfian popularity law over a dozen distinct
     traces — a few dominate, most are rare — which is the regime where
     fingerprint locality pays: each popular trace is computed once on
     its owning node and every repeat is that node's cache hit *)
  let distinct = 12 and requests = 96 in
  let traces =
    Array.init distinct (fun i ->
        ( Printf.sprintf "a16-%d" i,
          Synthetic.uniform ~seed:(1001 + (2 * i)) ~span:4096 ~length:8192 ))
  in
  let mix =
    let draw = Synthetic.zipf_sampler ~seed:7 ~n:distinct ~skew:1.1 in
    List.init requests (fun _ -> traces.(draw ()))
  in
  let run_mix ~clients addr jobs =
    (* split the mix over [clients] domains of sequential submitters *)
    let chunks = Array.make clients [] in
    List.iteri (fun i job -> chunks.(i mod clients) <- job :: chunks.(i mod clients)) jobs;
    let failures = Atomic.make 0 in
    let slowest = Atomic.make 0. in
    let note_latency dt =
      let rec bump () =
        let seen = Atomic.get slowest in
        if dt > seen && not (Atomic.compare_and_set slowest seen dt) then bump ()
      in
      bump ()
    in
    let _, seconds =
      Timing.time_wall (fun () ->
          Array.to_list chunks
          |> List.map (fun chunk ->
                 Domain.spawn (fun () ->
                     List.iter
                       (fun (name, trace) ->
                         let result, dt =
                           Timing.time_wall (fun () ->
                               Client.submit ~socket:addr ~name trace)
                         in
                         note_latency dt;
                         match result with
                         | Ok _ -> ()
                         | Error _ -> Atomic.incr failures)
                       chunk))
          |> List.iter Domain.join)
    in
    (seconds, Atomic.get failures, Atomic.get slowest)
  in
  (* one node behind the gateway: the routing-overhead baseline *)
  let b = start_backend () in
  let socket_of (socket, _, _) = socket in
  let r = start_router [ socket_of b ] in
  let addr_of (listen, _, _) = listen in
  let single_s, single_failures, _ = run_mix ~clients:8 (addr_of r) mix in
  stop_router r;
  stop_backend b;
  if single_failures > 0 then failwith "A16: failures against a single healthy node";
  let single_node_rps = float_of_int requests /. single_s in
  (* the same mix over three nodes *)
  let backends = [ start_backend (); start_backend (); start_backend () ] in
  let names = List.map socket_of backends in
  let r = start_router names in
  let fleet_s, fleet_failures, _ = run_mix ~clients:8 (addr_of r) mix in
  if fleet_failures > 0 then failwith "A16: failures against a healthy fleet";
  let fleet_rps = float_of_int requests /. fleet_s in
  (* locality: every repeat of a popular trace should be a cache hit on
     its owning node, so fleet-wide hits/(hits+misses) approaches
     (requests - distinct) / requests *)
  let hits, misses =
    List.fold_left
      (fun (h, m) socket ->
        match Client.health ~socket with
        | Ok s -> (h + s.Protocol.cache_hits, m + s.Protocol.cache_misses)
        | Error e -> failwith ("A16 health: " ^ Dse_error.to_string e))
      (0, 0) names
  in
  let locality_hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  (* losing a node mid-burst: stop one backend while the warm mix
     replays; every client request must still be answered, and the
     slowest answer bounds the failover + recompute detour *)
  let kill_requests = 48 in
  let kill_mix =
    let draw = Synthetic.zipf_sampler ~seed:9 ~n:distinct ~skew:1.1 in
    List.init kill_requests (fun _ -> traces.(draw ()))
  in
  let victim = List.hd backends in
  let assassin =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        stop_backend victim)
  in
  let kill_s, kill_failures, max_failover_latency_s = run_mix ~clients:8 (addr_of r) kill_mix in
  Domain.join assassin;
  let failovers = (Router.stats (match r with _, router, _ -> router)).Router.failovers in
  stop_router r;
  List.iter stop_backend (List.tl backends);
  Format.printf "zipfian mix: %d requests over %d distinct traces (skew 1.1)@." requests distinct;
  Format.printf "aggregate throughput: %.0f req/s on 1 node, %.0f req/s on 3 nodes@."
    single_node_rps fleet_rps;
  Format.printf "fleet cache locality: %.1f%% hit rate (ideal %.1f%%)@."
    (100. *. locality_hit_rate)
    (100. *. float_of_int (requests - distinct) /. float_of_int requests);
  Format.printf
    "node killed mid-burst: %d/%d answered, %d failover(s), slowest answer %.4f s (%.4f s burst)@."
    (kill_requests - kill_failures) kill_requests failovers max_failover_latency_s kill_s;
  if kill_failures > 0 then failwith "A16: client-visible failures during the node loss";
  {
    fleet_nodes = 3;
    distinct_traces = distinct;
    mix_requests = requests;
    single_node_rps;
    fleet_rps;
    locality_hit_rate;
    kill_requests;
    kill_failures;
    kill_failovers = failovers;
    max_failover_latency_s;
  }

(* -- A18: warm-state replication -- *)

type replication_result = {
  repl_nodes : int;
  repl_traces : int;
  replication_factor : int;
  burst_rps_off : float;
  burst_rps_on : float;
  push_drain_seconds : float;
  failover_cold_seconds : float;
  failover_warm_seconds : float;
  warm_peer_hits : int;
  warm_kernel_reruns : int;
  cold_kernel_reruns : int;
}

let replication_section () =
  section "A18: replication — warm vs cold failover after losing the busiest node";
  let boot (socket, peers, replication) =
    let config =
      { Server.socket_path = socket; tcp = None; node_id = None; workers = 2; max_pending = 32;
        cache_entries = Result_cache.default_capacity; wal_path = None; hang_timeout = 30.;
        max_job_refs = None; memory_budget = None;
        peers; replication; replication_queue = 256; anti_entropy = false }
    in
    match Server.create ~log:(fun _ -> ()) config with
    | Ok s -> (socket, s, Domain.spawn (fun () -> Server.run s))
    | Error e -> failwith ("A18 backend: " ^ Dse_error.to_string e)
  in
  let stop_backend (socket, s, runner) =
    Server.stop s;
    Domain.join runner;
    if Sys.file_exists socket then Sys.remove socket
  in
  let health socket =
    match Client.health ~socket with
    | Ok h -> h
    | Error e -> failwith ("A18 health: " ^ Dse_error.to_string e)
  in
  (* traces whose kernel run dominates a resubmit: at 100K references
     over ~15K lines a recompute costs about ten times what shipping,
     fingerprinting and a peer's cache hit do, so warm failover beats
     cold by more than scheduling noise *)
  let traces =
    List.init 8 (fun i ->
        ( Printf.sprintf "a18-%d" i,
          Synthetic.zipfian ~seed:(1801 + i) ~span:16384 ~skew:0.8 ~length:100_000 ))
  in
  (* one cluster pass: warm the fleet through the router, kill the
     busiest node, resubmit everything and time the slowest answer *)
  let run_pass ~replicated =
    let sockets = List.init 3 (fun _ -> Filename.temp_file "dse_bench18b" ".sock") in
    List.iter Sys.remove sockets;
    let servers =
      List.map
        (fun s ->
          if replicated then
            boot (s, List.filter (fun p -> p <> s) sockets, 2)
          else boot (s, [], 1))
        sockets
    in
    let listen = Filename.temp_file "dse_bench18r" ".sock" in
    Sys.remove listen;
    let router =
      match
        Router.create ~log:(fun _ -> ())
          { Router.default_config with Router.listen; backends = sockets;
            health_interval = 0.2; breaker = { Breaker.default_config with cooldown_base = 0.2 } }
      with
      | Ok r -> (listen, r, Domain.spawn (fun () -> Router.run r))
      | Error e -> failwith ("A18 router: " ^ Dse_error.to_string e)
    in
    let listen, r, r_runner = router in
    let submit (name, trace) =
      match Client.submit ~socket:listen ~name trace with
      | Ok payload -> payload
      | Error e -> failwith ("A18 submit: " ^ Dse_error.to_string e)
    in
    (* the warm-up burst: its throughput with replication on vs off is
       the replication overhead on the serving path (pushes are
       off-path, so the cost should be the queue insert alone) *)
    let (), burst_s = Timing.time_wall (fun () -> List.iter (fun job -> ignore (submit job)) traces) in
    let burst_rps = float_of_int (List.length traces) /. burst_s in
    (* wait for the push queues to drain so the warm pass measures
       failover, not replication-in-flight *)
    let (), push_drain_s =
      Timing.time_wall (fun () ->
          if replicated then begin
            let deadline = Unix.gettimeofday () +. 10. in
            let drained () =
              List.for_all
                (fun s ->
                  let h = health s in
                  h.Protocol.replication_lag = 0
                  && h.Protocol.replicated_out = h.Protocol.jobs_completed)
                sockets
            in
            while (not (drained ())) && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.02
            done;
            if not (drained ()) then failwith "A18: replication never drained"
          end)
    in
    (* the busiest node hurts the most to lose *)
    let victim_socket, _ =
      List.fold_left
        (fun (best, jobs) s ->
          let j = (health s).Protocol.jobs_completed in
          if j > jobs then (s, j) else (best, jobs))
        ("", -1) sockets
    in
    let survivors = List.filter (fun s -> s <> victim_socket) sockets in
    let jobs_before = List.map (fun s -> (health s).Protocol.jobs_completed) survivors in
    let victim = List.find (fun (s, _, _) -> s = victim_socket) servers in
    stop_backend victim;
    let slowest = ref 0. in
    List.iter
      (fun job ->
        let payload, dt = Timing.time_wall (fun () -> submit job) in
        ignore payload;
        if dt > !slowest then slowest := dt)
      traces;
    let reruns =
      List.fold_left2
        (fun acc s before -> acc + (health s).Protocol.jobs_completed - before)
        0 survivors jobs_before
    in
    let peer_hits = (Router.stats r).Router.peer_hits in
    Router.stop r;
    Domain.join r_runner;
    if Sys.file_exists listen then Sys.remove listen;
    List.iter (fun ((s, _, _) as srv) -> if s <> victim_socket then stop_backend srv) servers;
    (!slowest, reruns, peer_hits, push_drain_s, burst_rps)
  in
  let cold_s, cold_reruns, _, _, burst_rps_off = run_pass ~replicated:false in
  let warm_s, warm_reruns, warm_peer_hits, push_drain_s, burst_rps_on =
    run_pass ~replicated:true
  in
  Format.printf "fleet of 3, %d distinct traces, busiest node killed after warm-up@."
    (List.length traces);
  Format.printf "replication off: %.1f req/s burst, slowest resubmit %.4f s, %d kernel rerun(s)@."
    burst_rps_off cold_s cold_reruns;
  Format.printf
    "replication on (R=2): %.1f req/s burst, slowest resubmit %.4f s, %d kernel rerun(s), %d peer hit(s), pushes drained in %.4f s@."
    burst_rps_on warm_s warm_reruns warm_peer_hits push_drain_s;
  if warm_peer_hits < 1 then failwith "A18: warm failover produced no peer hits";
  if warm_reruns > 0 then failwith "A18: warm failover re-ran the kernel";
  if cold_reruns < 1 then failwith "A18: cold failover re-ran no kernel";
  {
    repl_nodes = 3;
    repl_traces = List.length traces;
    replication_factor = 2;
    burst_rps_off;
    burst_rps_on;
    push_drain_seconds = push_drain_s;
    failover_cold_seconds = cold_s;
    failover_warm_seconds = warm_s;
    warm_peer_hits;
    warm_kernel_reruns = warm_reruns;
    cold_kernel_reruns = cold_reruns;
  }

(* -- A19: online membership -- *)

type membership_result = {
  member_nodes : int;
  member_traces : int;
  drain_handoff_seconds : float;
  drain_pushed : int;
  join_warmup_seconds : float;
  identity_submissions : int;
  identity_identical : int;
}

let membership_section () =
  section "A19: membership — drain handoff, join warm-up, answer identity under churn";
  let boot socket peers =
    let config =
      { Server.socket_path = socket; tcp = None; node_id = None; workers = 2; max_pending = 32;
        cache_entries = Result_cache.default_capacity; wal_path = None; hang_timeout = 30.;
        max_job_refs = None; memory_budget = None;
        peers; replication = 2; replication_queue = 256; anti_entropy = true }
    in
    match Server.create ~log:(fun _ -> ()) config with
    | Ok s -> (socket, s, Domain.spawn (fun () -> Server.run s))
    | Error e -> failwith ("A19 backend: " ^ Dse_error.to_string e)
  in
  let stop_backend (socket, s, runner) =
    Server.stop s;
    Domain.join runner;
    if Sys.file_exists socket then Sys.remove socket
  in
  let sockets = List.init 3 (fun _ -> Filename.temp_file "dse_bench19b" ".sock") in
  List.iter Sys.remove sockets;
  let servers =
    ref (List.map (fun s -> boot s (List.filter (fun p -> p <> s) sockets)) sockets)
  in
  let listen = Filename.temp_file "dse_bench19r" ".sock" in
  Sys.remove listen;
  let router, r_runner =
    match
      Router.create ~log:(fun _ -> ())
        { Router.default_config with Router.listen; backends = sockets;
          health_interval = 0.2; breaker = { Breaker.default_config with cooldown_base = 0.2 } }
    with
    | Ok r -> (r, Domain.spawn (fun () -> Router.run r))
    | Error e -> failwith ("A19 router: " ^ Dse_error.to_string e)
  in
  let traces =
    List.init 8 (fun i ->
        ( Printf.sprintf "a19-%d" i,
          Synthetic.zipfian ~seed:(1901 + i) ~span:4096 ~skew:1.1 ~length:20_000 ))
  in
  (* the identity oracle: what the in-process pipeline answers *)
  let expected =
    List.map (fun (name, trace) -> (name, Protocol.Table (Analytical_dse.run ~name trace))) traces
  in
  let submissions = ref 0 and identical = ref 0 in
  let pass () =
    List.iter
      (fun (name, trace) ->
        incr submissions;
        match Client.submit ~socket:listen ~retries:5 ~name trace with
        | Ok payload -> if payload.Protocol.outcome = List.assoc name expected then incr identical
        | Error _ -> ())
      traces
  in
  let digest socket =
    match Client.exchange socket (Protocol.Cache_query { ring_version = 0; keys = [] }) with
    | Ok (Protocol.Cache_reply { keys; _ }) -> keys
    | _ -> failwith "A19: digest query failed"
  in
  pass ();
  (* graceful drain of a live member, timed end to end: survivors adopt,
     the leaver settles and hands off its warm range, routing moves *)
  let leaver = List.hd sockets in
  let survivors = List.tl sockets in
  let (_, pushed, failed), drain_s =
    Timing.time_wall (fun () ->
        match Admin.drain ~gateway:listen ~contacts:sockets leaver with
        | Ok r -> r
        | Error e -> failwith ("A19 drain: " ^ Dse_error.to_string e))
  in
  if failed <> [] then failwith "A19: drain config push failed";
  let leaver_srv = List.find (fun (s, _, _) -> s = leaver) !servers in
  servers := List.filter (fun (s, _, _) -> s <> leaver) !servers;
  stop_backend leaver_srv;
  pass ();
  (* runtime join of a cold node, timed until anti-entropy has pulled
     every key placed on it under the published ring *)
  let newcomer = Filename.temp_file "dse_bench19j" ".sock" in
  Sys.remove newcomer;
  servers := boot newcomer [] :: !servers;
  let (), join_s =
    Timing.time_wall (fun () ->
        let config =
          match Admin.join ~gateway:listen ~contacts:survivors newcomer with
          | Ok (config, []) -> config
          | Ok (_, (target, e) :: _) ->
            failwith
              (Printf.sprintf "A19 join: push to %s failed: %s" target (Dse_error.to_string e))
          | Error e -> failwith ("A19 join: " ^ Dse_error.to_string e)
        in
        let ring = Ring.create config.Protocol.nodes in
        let wanted =
          List.filter
            (fun (key : Result_cache.key) ->
              Ring.successors ring key.Result_cache.fingerprint
              |> List.filteri (fun i _ -> i < config.Protocol.replication)
              |> List.mem newcomer)
            (List.sort_uniq compare (List.concat_map digest survivors))
        in
        let warmed () =
          let have = digest newcomer in
          List.for_all (fun key -> List.mem key have) wanted
        in
        let deadline = Unix.gettimeofday () +. 15. in
        while (not (warmed ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.02
        done;
        if not (warmed ()) then failwith "A19: the joining node never warmed its range")
  in
  pass ();
  Router.stop router;
  Domain.join r_runner;
  if Sys.file_exists listen then Sys.remove listen;
  List.iter stop_backend !servers;
  Format.printf
    "drain handoff %.4f s (%d record(s)); join warm-up %.4f s; %d/%d answers identical across the churn@."
    drain_s pushed join_s !identical !submissions;
  if pushed < 1 then failwith "A19: the drain handed off nothing";
  if !identical < !submissions then failwith "A19: a routed answer diverged during membership churn";
  {
    member_nodes = 3;
    member_traces = List.length traces;
    drain_handoff_seconds = drain_s;
    drain_pushed = pushed;
    join_warmup_seconds = join_s;
    identity_submissions = !submissions;
    identity_identical = !identical;
  }

(* -- machine-readable output for tracking the perf trajectory -- *)

let emit_json ~fast ~samples ~large ~approx ~server ~selfheal ~supervision ~router ~replication
    ~membership =
  let oc = open_out "BENCH_dse.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* the cores the run could use, so a 1-core run is never read as
         showing (or refuting) the x4 and fleet scaling numbers below *)
      Printf.fprintf oc "{\n  \"schema\": 1,\n  \"mode\": %S,\n  \"cores\": %d,\n"
        (if fast then "fast" else "full")
        (Domain.recommended_domain_count ());
      Printf.fprintf oc "  \"workloads\": [\n";
      List.iteri
        (fun idx ((kind : string), (s : Timing.sample)) ->
          Printf.fprintf oc "    {\"name\": %S, \"kind\": %S, \"n\": %d, \"n_unique\": %d, \"wall_seconds\": %.6f}%s\n"
            s.Timing.name kind s.Timing.n s.Timing.n_unique s.Timing.seconds
            (if idx = List.length samples - 1 then "" else ","))
        samples;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc
        "  \"large_trace\": {\"n\": %d, \"n_unique\": %d, \"arena_wall_seconds\": %.6f, \"arena_wall_seconds_min\": %.6f, \"arena_wall_seconds_max\": %.6f, \"arena_minor_words\": %.0f, \"arena_peak_heap_mb\": %.1f, \"oracle_n\": %d, \"mrct_words\": %d, \"materialized_wall_seconds\": %.6f, \"oracle_arena_wall_seconds\": %.6f, \"oracle_heap_mb\": %.1f, \"histograms_identical\": true},\n"
        large.large_n large.large_n' large.arena_s large.arena_min_s large.arena_max_s
        large.arena_minor_words
        large.arena_peak_mb large.oracle_n large.mrct_words large.materialized_s
        large.oracle_arena_s large.oracle_heap_mb;
      Printf.fprintf oc
        "  \"approx\": {\"n\": %d, \"span\": %d, \"distinct\": %.1f, \"alpha\": %.4f, \"fit_r2\": %.4f, \"sketch_wall_seconds\": %.6f, \"sketch_minor_words\": %.0f, \"estimate_wall_seconds\": %.6f, \"exact_wall_seconds\": %.6f, \"speedup\": %.1f, \"sketch_state_bytes\": %d, \"sketch_state_mb\": %.2f, \"exact_arena_bytes\": %d, \"exact_arena_mb\": %.2f, \"grid_points\": %d, \"grid_covered\": %d, \"mean_rate_err\": %.6f},\n"
        approx.approx_n approx.approx_span approx.approx_distinct approx.approx_alpha
        approx.approx_fit_r2 approx.sketch_s approx.sketch_minor_words approx.estimate_s
        approx.exact_s
        (approx.exact_s /. (approx.sketch_s +. approx.estimate_s))
        approx.sketch_state_bytes
        (float_of_int approx.sketch_state_bytes /. 1048576.)
        approx.exact_arena_bytes
        (float_of_int approx.exact_arena_bytes /. 1048576.)
        approx.grid_points approx.grid_covered approx.mean_rate_err;
      Printf.fprintf oc
        "  \"server\": {\"cold_submit_seconds\": %.6f, \"cached_submit_seconds\": %.6f, \"cache_speedup\": %.1f, \"clients\": %d, \"requests\": %d, \"throughput_rps\": %.1f, \"p50_latency_seconds\": %.6f, \"p99_latency_seconds\": %.6f},\n"
        server.cold_s server.warm_s (server.cold_s /. server.warm_s) server.clients
        server.requests server.throughput_rps server.p50_s server.p99_s;
      Printf.fprintf oc
        "  \"selfheal\": {\"cold_start_to_answer_seconds\": %.6f, \"warm_start_to_answer_seconds\": %.6f, \"wal_records_replayed\": %d, \"burst_clients\": %d, \"burst_seconds\": %.6f, \"burst_rps\": %.1f, \"burst_kernel_runs\": %d, \"burst_coalesced_hits\": %d},\n"
        selfheal.cold_start_to_answer_s selfheal.warm_start_to_answer_s selfheal.wal_records
        selfheal.burst_clients selfheal.burst_s selfheal.burst_rps selfheal.kernel_runs
        selfheal.coalesced;
      Printf.fprintf oc
        "  \"supervision\": {\"hang_timeout_seconds\": %.2f, \"stall_detect_seconds\": %.6f, \"recovery_submit_seconds\": %.6f, \"burst_jobs\": %d, \"burst_accepted\": %d, \"burst_shed\": %d, \"burst_rejected_full\": %d, \"burst_seconds\": %.6f, \"accepted_rps\": %.1f},\n"
        supervision.hang_timeout_s supervision.stall_detect_s supervision.recovery_submit_s
        supervision.burst_jobs supervision.burst_accepted supervision.burst_shed
        supervision.burst_rejected_full supervision.burst_s supervision.accepted_rps;
      Printf.fprintf oc
        "  \"router\": {\"fleet_nodes\": %d, \"distinct_traces\": %d, \"mix_requests\": %d, \"single_node_rps\": %.1f, \"fleet_rps\": %.1f, \"locality_hit_rate\": %.3f, \"kill_burst_requests\": %d, \"kill_client_failures\": %d, \"kill_failovers\": %d, \"max_failover_latency_seconds\": %.6f},\n"
        router.fleet_nodes router.distinct_traces router.mix_requests router.single_node_rps
        router.fleet_rps router.locality_hit_rate router.kill_requests router.kill_failures
        router.kill_failovers router.max_failover_latency_s;
      Printf.fprintf oc
        "  \"replication\": {\"fleet_nodes\": %d, \"distinct_traces\": %d, \"replication_factor\": %d, \"burst_rps_replication_off\": %.1f, \"burst_rps_replication_on\": %.1f, \"push_drain_seconds\": %.6f, \"failover_cold_seconds\": %.6f, \"failover_warm_seconds\": %.6f, \"warm_peer_hits\": %d, \"warm_kernel_reruns\": %d, \"cold_kernel_reruns\": %d},\n"
        replication.repl_nodes replication.repl_traces replication.replication_factor
        replication.burst_rps_off replication.burst_rps_on
        replication.push_drain_seconds replication.failover_cold_seconds
        replication.failover_warm_seconds replication.warm_peer_hits
        replication.warm_kernel_reruns replication.cold_kernel_reruns;
      Printf.fprintf oc
        "  \"membership\": {\"fleet_nodes\": %d, \"distinct_traces\": %d, \"drain_handoff_seconds\": %.6f, \"drain_pushed\": %d, \"join_warmup_seconds\": %.6f, \"identity_submissions\": %d, \"identity_identical\": %d}\n"
        membership.member_nodes membership.member_traces membership.drain_handoff_seconds
        membership.drain_pushed membership.join_warmup_seconds membership.identity_submissions
        membership.identity_identical;
      Printf.fprintf oc "}\n");
  Format.printf "@.(machine-readable results written to BENCH_dse.json)@."

(* -- A8: replacement-policy ablation -- *)

let policy_section () =
  section "A8: replacement-policy ablation (paper fixes LRU as 'often optimal')";
  let trace = List.assoc "ucbqsort" data_traces in
  Format.printf "ucbqsort data trace, depth 64:@.";
  Format.printf "%-8s %10s %10s %10s@." "assoc" "LRU" "FIFO" "RANDOM";
  List.iter
    (fun associativity ->
      let misses replacement =
        (Cache.simulate (Config.make ~replacement ~depth:64 ~associativity ()) trace)
          .Cache.misses
      in
      Format.printf "%-8d %10d %10d %10d@." associativity (misses Config.Lru)
        (misses Config.Fifo)
        (misses (Config.Random 7)))
    [ 1; 2; 4; 8 ]

(* -- A9: compiled (MiniC) workloads through the full flow -- *)

let compiled_workloads_section () =
  section "A9: extension — compiled MiniC workloads through the full flow";
  Format.printf "%-10s %8s %10s %10s %8s %18s@." "program" "code" "N (inst)" "N (data)"
    "N'(data)" "10% data instance";
  List.iter
    (fun (p : Mc_programs.program) ->
      let compiled = Mc_programs.compiled p in
      let result = Mc_codegen.run compiled in
      assert (Machine.return_value result = p.Mc_programs.expected);
      let itrace, dtrace = Mc_codegen.traces compiled in
      let stats = Stats.compute dtrace in
      let prepared = Analytical.prepare dtrace in
      let instance =
        Codesign.smallest_instance prepared ~k:(Stats.budget stats ~percent:10)
      in
      Format.printf "%-10s %8d %10d %10d %8d %12dx%-4d@." p.Mc_programs.name
        (Array.length compiled.Mc_codegen.program)
        (Trace.length itrace) (Trace.length dtrace) stats.Stats.n_unique
        instance.Codesign.depth instance.Codesign.associativity)
    Mc_programs.all;
  Format.printf "@.(each program's VM result is asserted against its native mirror)@."

(* -- A10: L2 exploration over the L1 miss stream -- *)

let l2_section () =
  section "A10: extension — analytical L2 exploration over the L1 miss stream";
  let bench = Registry.find "ucbqsort" in
  let itrace, dtrace = Workload.traces bench in
  let l1 = Config.make ~depth:64 ~associativity:1 () in
  let result = Hierarchy_dse.explore ~l1i:l1 ~l1d:l1 ~itrace ~dtrace ~max_level:10 () in
  Format.printf "ucbqsort behind 64x1 L1s: %d + %d L1 misses -> L2 stream of %d refs@.@."
    (Cache.total_misses result.Hierarchy_dse.l1i_stats)
    (Cache.total_misses result.Hierarchy_dse.l1d_stats)
    (Trace.length result.Hierarchy_dse.l2_stream);
  Format.printf "%a@."
    Report.pp_instances
    (Analytical_dse.trim result.Hierarchy_dse.table)

(* -- Bechamel micro-benchmarks: one Test.make per table -- *)

let bechamel_suite () =
  section "Bechamel micro-benchmarks (one test per table)";
  let open Bechamel in
  let stats_test name traces =
    Test.make ~name
      (Staged.stage (fun () -> List.iter (fun (_, t) -> ignore (Stats.compute t)) traces))
  in
  let table_test name trace =
    Test.make ~name (Staged.stage (fun () -> ignore (Analytical_dse.run ~name trace)))
  in
  let timing_test name traces =
    Test.make ~name
      (Staged.stage (fun () ->
           List.iter (fun (n, t) -> ignore (Timing.analytical_sample ~name:n t)) traces))
  in
  let postlude_tests =
    (* head-to-head on the heaviest PowerStone data trace: same histograms
       from the oracle and the kernel *)
    let trace = List.assoc "compress" data_traces in
    let stripped = Strip.strip trace in
    let max_level = Strip.address_bits stripped in
    [
      Test.make ~name:"postlude:materialized"
        (Staged.stage (fun () ->
             ignore (materialized_histograms stripped ~max_level)));
      Test.make ~name:"postlude:arena"
        (Staged.stage (fun () -> ignore (Analytical.prepare trace)));
    ]
  in
  let tests =
    [ stats_test "table05:data-stats" data_traces; stats_test "table06:inst-stats" instruction_traces ]
    @ postlude_tests
    @ List.mapi
        (fun idx (name, trace) -> table_test (Printf.sprintf "table%02d:%s-data" (7 + idx) name) trace)
        data_traces
    @ List.mapi
        (fun idx (name, trace) ->
          table_test (Printf.sprintf "table%02d:%s-inst" (19 + idx) name) trace)
        instruction_traces
    @ [
        timing_test "table31:data-timing" data_traces;
        timing_test "table32:inst-timing" instruction_traces;
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  Format.printf "%-28s %16s@." "test" "time per run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let nanos =
            match Analyze.OLS.estimates result with Some (e :: _) -> e | _ -> nan
          in
          Format.printf "%-28s %13.3f ms@." (Test.Elt.name elt) (nanos /. 1e6))
        (Test.elements test))
    tests

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  Format.printf "Analytical Design Space Exploration of Caches — reproduction harness@.";
  running_example ();
  (* A12 runs first: top_heap_words is monotone over the process
     lifetime, so its arena peak is only clean before other sections
     allocate *)
  let large = large_trace_section () in
  let approx = approx_section () in
  let _ = stats_table "E2: Table 5 (data trace statistics)" data_traces in
  let _ = stats_table "E3: Table 6 (instruction trace statistics)" instruction_traces in
  instance_tables "E4: Tables 7-18 (optimal data cache instances, K = 5/10/15/20%)" data_traces;
  instance_tables "E5: Tables 19-30 (optimal instruction cache instances)" instruction_traces;
  let data_samples = timing_table "E6: Table 31 (algorithm run time, data traces)" data_traces in
  let inst_samples =
    timing_table "E7: Table 32 (algorithm run time, instruction traces)" instruction_traces
  in
  (* extra Figure 4 points: the whole suite at input scale 2 *)
  let scaled_samples =
    List.map
      (fun (b : Workload.t) ->
        let dtrace = Workload.data_trace b in
        (Timing.analytical_sample ~repeats:2 ~name:b.Workload.name dtrace, dtrace))
      (Registry.scaled 2)
  in
  let with_traces =
    List.map2 (fun s (_, t) -> (s, t)) data_samples data_traces
    @ List.map2 (fun s (_, t) -> (s, t)) inst_samples instruction_traces
    @ scaled_samples
  in
  figure4 with_traces;
  scaling_study ();
  ablation_line_size ();
  ablation_dfs ();
  baseline_comparison ();
  mattson_crosscheck ();
  pareto_section ();
  reduction_section ();
  oracle_section ();
  let server = server_section () in
  let selfheal = selfheal_section () in
  let supervision = supervision_section () in
  let router = router_section () in
  let replication = replication_section () in
  let membership = membership_section () in
  policy_section ();
  compiled_workloads_section ();
  l2_section ();
  if not fast then bechamel_suite ();
  let samples =
    List.map (fun s -> ("data", s)) data_samples
    @ List.map (fun s -> ("inst", s)) inst_samples
  in
  emit_json ~fast ~samples ~large ~approx ~server ~selfheal ~supervision ~router ~replication
    ~membership;
  Format.printf "@.done.@."
