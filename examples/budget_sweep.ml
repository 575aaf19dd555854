(* Sweeping the designer's miss budget K for the engine-controller
   kernel: because the prelude (one kernel run, in [Analytical.prepare])
   is computed once and each budget is a cheap postlude pass over its
   histograms, exploring many constraints is nearly free — the core
   selling point over simulate-and-tune.

     dune exec examples/budget_sweep.exe *)

let () =
  let bench = Registry.find "engine" in
  let dtrace = Workload.data_trace bench in
  let stats = Stats.compute dtrace in
  Format.printf "engine data trace: %a@.@." Stats.pp stats;

  let prepared = Analytical.prepare dtrace in
  Format.printf "%-10s %-10s %s@." "budget K" "% of max" "associativity at depths 1..64";
  List.iter
    (fun percent ->
      let k = Stats.budget stats ~percent in
      let result = Analytical.explore_prepared prepared ~k in
      let assocs =
        List.filter_map
          (fun (depth, a) -> if depth <= 64 then Some (string_of_int a) else None)
          (Optimizer.optimal_pairs result)
      in
      Format.printf "%-10d %-10d %s@." k percent (String.concat " " assocs))
    [ 0; 1; 2; 5; 10; 15; 20; 30; 50 ];

  (* Verify the headline guarantee across the whole sweep at depth 16. *)
  let depth = 16 in
  List.iter
    (fun percent ->
      let k = Stats.budget stats ~percent in
      let result = Analytical.explore_prepared prepared ~k in
      let associativity = List.assoc depth (Optimizer.optimal_pairs result) in
      let sim = Cache.simulate (Config.make ~depth ~associativity ()) dtrace in
      assert (sim.Cache.misses <= k))
    [ 0; 5; 20; 50 ];
  Format.printf "@.simulator confirms every depth-16 instance meets its budget.@."
