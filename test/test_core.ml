(* Tests for the analytical model: zero/one sets (Table 3), BCAT
   (Algorithm 1, Figure 3), MRCT (Algorithm 2, Table 4), the postlude
   optimizer (Algorithm 3) and its DFS variant — including the central
   exactness property against the reference cache simulator. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let sorted_sets sets = List.sort compare sets

let paper_stripped () = Strip.strip (Paper_example.trace ())

(* -- zero/one sets -- *)

let test_zero_one_paper () =
  let zo = Zero_one.build (paper_stripped ()) in
  check_int "bits" 4 (Zero_one.bits zo);
  check_int "N'" 5 (Zero_one.num_unique zo);
  List.iteri
    (fun bit expected ->
      Alcotest.(check (list int))
        (Printf.sprintf "Z_%d" bit) expected
        (Bitset.elements (Zero_one.zero zo bit)))
    Paper_example.zero_sets;
  List.iteri
    (fun bit expected ->
      Alcotest.(check (list int))
        (Printf.sprintf "O_%d" bit) expected
        (Bitset.elements (Zero_one.one zo bit)))
    Paper_example.one_sets;
  Alcotest.(check (list int)) "universe" [ 0; 1; 2; 3; 4 ] (Bitset.elements (Zero_one.universe zo))

let test_zero_one_partition () =
  let zo = Zero_one.build (paper_stripped ()) in
  for bit = 0 to Zero_one.bits zo - 1 do
    let z = Zero_one.zero zo bit and o = Zero_one.one zo bit in
    check_bool "disjoint" true (Bitset.disjoint z o);
    check_bool "cover" true (Bitset.equal (Bitset.union z o) (Zero_one.universe zo))
  done

let test_zero_one_bounds () =
  let zo = Zero_one.build (paper_stripped ()) in
  Alcotest.check_raises "bit out of range" (Invalid_argument "Zero_one: bit 4 out of [0, 4)")
    (fun () -> ignore (Zero_one.zero zo 4))

(* -- BCAT -- *)

let paper_bcat () = Bcat.build (Zero_one.build (paper_stripped ()))

let node_sets bcat level =
  sorted_sets (List.map (fun n -> Array.to_list n.Bcat.ids) (Bcat.nodes_at_level bcat level))

let test_bcat_figure3 () =
  let bcat = paper_bcat () in
  check_int "max level" 4 (Bcat.max_level bcat);
  Alcotest.(check (list (list int)))
    "root" [ [ 0; 1; 2; 3; 4 ] ] (node_sets bcat 0);
  Alcotest.(check (list (list int))) "level 1" (sorted_sets Paper_example.level1) (node_sets bcat 1);
  Alcotest.(check (list (list int))) "level 2" (sorted_sets Paper_example.level2) (node_sets bcat 2);
  Alcotest.(check (list (list int))) "level 3" (sorted_sets Paper_example.level3) (node_sets bcat 3);
  Alcotest.(check (list (list int))) "level 4" (sorted_sets Paper_example.level4) (node_sets bcat 4)

let test_bcat_rows_are_low_bits () =
  let bcat = paper_bcat () in
  let stripped = paper_stripped () in
  for level = 0 to Bcat.max_level bcat do
    List.iter
      (fun node ->
        Array.iter
          (fun id ->
            check_int "row = low bits of address"
              (stripped.Strip.uniques.(id) land ((1 lsl level) - 1))
              node.Bcat.row)
          node.Bcat.ids)
      (Bcat.nodes_at_level bcat level)
  done

let test_bcat_children_partition () =
  let bcat = paper_bcat () in
  let rec walk node =
    match node.Bcat.children with
    | None -> ()
    | Some (z, o) ->
      let combined = List.sort compare (Array.to_list z.Bcat.ids @ Array.to_list o.Bcat.ids) in
      Alcotest.(check (list int)) "children partition parent" (Array.to_list node.Bcat.ids) combined;
      walk z;
      walk o
  in
  walk (Bcat.root bcat)

let test_bcat_max_level_clamped () =
  let bcat = Bcat.build ~max_level:2 (Zero_one.build (paper_stripped ())) in
  check_int "clamped" 2 (Bcat.max_level bcat);
  let bcat = Bcat.build ~max_level:99 (Zero_one.build (paper_stripped ())) in
  check_int "clamped to bits" 4 (Bcat.max_level bcat)

let test_bcat_conflict_sets () =
  let bcat = paper_bcat () in
  Alcotest.(check (list (list int)))
    "level 2 multi-reference rows"
    (sorted_sets [ [ 1; 4 ]; [ 0; 3 ] ])
    (sorted_sets (List.map Array.to_list (Bcat.conflict_sets_at_level bcat 2)));
  check_int "max row population level 0" 5 (Bcat.max_row_population bcat 0);
  check_int "max row population level 1" 3 (Bcat.max_row_population bcat 1);
  check_int "max row population level 4" 1 (Bcat.max_row_population bcat 4)

let test_bcat_singleton_trace () =
  let bcat = Bcat.build (Zero_one.build (Strip.strip (Trace.of_addresses [| 5 |]))) in
  check_int "node count" 1 (Bcat.node_count bcat);
  check_int "root size" 1 (Array.length (Bcat.root bcat).Bcat.ids)

(* -- MRCT -- *)

let test_mrct_paper () =
  let mrct = Mrct.build (paper_stripped ()) in
  List.iter
    (fun (id, expected) ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "conflicts of %d" id)
        expected
        (List.map
           (fun c -> List.sort compare (Array.to_list c))
           (Array.to_list (Mrct.conflict_sets mrct id))))
    Paper_example.mrct

let test_mrct_totals () =
  let mrct = Mrct.build (paper_stripped ()) in
  check_int "total sets = N - N'" 5 (Mrct.total_sets mrct);
  check_int "volume" (3 + 3 + 4 + 4 + 3) (Mrct.volume mrct)

(* Brute-force MRCT: for each warm occurrence scan the window directly. *)
let mrct_brute (s : Strip.t) =
  let module Iset = Set.Make (Int) in
  let last = Hashtbl.create 16 in
  let out = Array.make (Strip.num_unique s) [] in
  Array.iteri
    (fun j id ->
      (match Hashtbl.find_opt last id with
      | Some p ->
        let window = ref Iset.empty in
        for k = p + 1 to j - 1 do
          if s.Strip.ids.(k) <> id then window := Iset.add s.Strip.ids.(k) !window
        done;
        out.(id) <- Iset.elements !window :: out.(id)
      | None -> ());
      Hashtbl.replace last id j)
    s.Strip.ids;
  Array.map List.rev out

let prop ?(count = 150) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_addresses = QCheck2.Gen.(array_size (int_range 1 250) (int_bound 63))

let prop_mrct_matches_brute_force =
  prop "MRCT = brute-force window scan" gen_addresses (fun addrs ->
      let s = Strip.strip_addresses addrs in
      let mrct = Mrct.build s in
      let brute = mrct_brute s in
      let ok = ref true in
      for id = 0 to Strip.num_unique s - 1 do
        let got =
          List.map
            (fun c -> List.sort compare (Array.to_list c))
            (Array.to_list (Mrct.conflict_sets mrct id))
        in
        if got <> brute.(id) then ok := false
      done;
      !ok)

let prop_mrct_no_self =
  prop "conflict sets never contain the reference" gen_addresses (fun addrs ->
      let mrct = Mrct.build (Strip.strip_addresses addrs) in
      let ok = ref true in
      Mrct.iter (fun u set -> if Array.exists (fun v -> v = u) set then ok := false) mrct;
      !ok)

let prop_mrct_set_count =
  prop "total sets = N - N'" gen_addresses (fun addrs ->
      let s = Strip.strip_addresses addrs in
      Mrct.total_sets (Mrct.build s) = Strip.num_refs s - Strip.num_unique s)

(* -- optimizer: paper example, hand-computed -- *)

let paper_optimizer k =
  let stripped = paper_stripped () in
  Optimizer.explore (paper_bcat ()) (Mrct.build stripped) ~k

let test_optimizer_paper_histograms () =
  let bcat = paper_bcat () in
  let mrct = Mrct.build (paper_stripped ()) in
  (* level 0: conflict cardinalities 3,3,4,4,3 *)
  Alcotest.(check (array int)) "level 0" [| 0; 0; 0; 3; 2 |]
    (Optimizer.histogram_at bcat mrct ~level:0);
  (* level 1: 1,1,2,2,1 *)
  Alcotest.(check (array int)) "level 1" [| 0; 3; 2 |]
    (Optimizer.histogram_at bcat mrct ~level:1);
  (* level 2: 1,1,1,1 *)
  Alcotest.(check (array int)) "level 2" [| 0; 4 |]
    (Optimizer.histogram_at bcat mrct ~level:2)

let test_optimizer_paper_misses () =
  let bcat = paper_bcat () in
  let mrct = Mrct.build (paper_stripped ()) in
  check_int "depth 1, direct" 5 (Optimizer.misses_at bcat mrct ~level:0 ~associativity:1);
  check_int "depth 1, 4-way" 2 (Optimizer.misses_at bcat mrct ~level:0 ~associativity:4);
  check_int "depth 1, 5-way" 0 (Optimizer.misses_at bcat mrct ~level:0 ~associativity:5);
  check_int "depth 2, direct" 5 (Optimizer.misses_at bcat mrct ~level:1 ~associativity:1);
  check_int "depth 2, 2-way" 2 (Optimizer.misses_at bcat mrct ~level:1 ~associativity:2);
  check_int "depth 4, direct" 4 (Optimizer.misses_at bcat mrct ~level:2 ~associativity:1);
  check_int "depth 4, 2-way" 0 (Optimizer.misses_at bcat mrct ~level:2 ~associativity:2);
  (* bit 3 is the first bit separating 0 from 3 and 1 from 4, so depth 8
     still pairs them up: 4 direct-mapped misses remain *)
  check_int "depth 8, direct" 4 (Optimizer.misses_at bcat mrct ~level:3 ~associativity:1);
  check_int "depth 8, 2-way" 0 (Optimizer.misses_at bcat mrct ~level:3 ~associativity:2);
  check_int "depth 16, direct" 0 (Optimizer.misses_at bcat mrct ~level:4 ~associativity:1)

let test_optimizer_zero_budget () =
  let result = paper_optimizer 0 in
  let assoc level = result.Optimizer.levels.(level).Optimizer.min_associativity in
  check_int "K=0 depth 1" 5 (assoc 0);
  check_int "K=0 depth 2" 3 (assoc 1);
  check_int "K=0 depth 4" 2 (assoc 2);
  check_int "K=0 depth 8" 2 (assoc 3);
  check_int "K=0 depth 16" 1 (assoc 4);
  (* the paper: with zero misses, A = max row cardinality *)
  check_int "matches A_zero at level 1" (Bcat.max_row_population (paper_bcat ()) 1) (assoc 1)

let test_optimizer_budget_two () =
  let result = paper_optimizer 2 in
  let level l = result.Optimizer.levels.(l) in
  check_int "K=2 depth 1" 4 (level 0).Optimizer.min_associativity;
  check_int "K=2 depth 1 misses" 2 (level 0).Optimizer.misses;
  check_int "K=2 depth 2" 2 (level 1).Optimizer.min_associativity;
  check_int "K=2 depth 4" 2 (level 2).Optimizer.min_associativity;
  check_int "zero-miss assoc at depth 1" 5 (level 0).Optimizer.zero_miss_associativity

let test_optimizer_rejects_negative_budget () =
  Alcotest.check_raises "negative" (Invalid_argument "Optimizer.explore: negative miss budget")
    (fun () -> ignore (paper_optimizer (-1)))

let test_optimal_pairs () =
  let result = paper_optimizer 0 in
  Alcotest.(check (list (pair int int)))
    "pairs" [ (1, 5); (2, 3); (4, 2); (8, 2); (16, 1) ]
    (Optimizer.optimal_pairs result)

(* -- DFS variant equivalence -- *)

let dfs_result stripped ~k =
  Dfs_optimizer.explore ~addresses:stripped.Strip.uniques (Mrct.build stripped)
    ~max_level:(Strip.address_bits stripped) ~k

let test_dfs_paper () =
  let result = dfs_result (paper_stripped ()) ~k:0 in
  Alcotest.(check (list (pair int int)))
    "pairs" [ (1, 5); (2, 3); (4, 2); (8, 2); (16, 1) ]
    (Optimizer.optimal_pairs result)

let prop_dfs_equals_bcat_walk =
  prop ~count:100 "DFS histograms = BCAT-walk histograms" gen_addresses (fun addrs ->
      let stripped = Strip.strip_addresses addrs in
      let mrct = Mrct.build stripped in
      let zo = Zero_one.build stripped in
      let bcat = Bcat.build zo in
      let max_level = Bcat.max_level bcat in
      let dfs = Dfs_optimizer.histograms ~addresses:stripped.Strip.uniques mrct ~max_level in
      let ok = ref true in
      for level = 0 to max_level do
        if Optimizer.histogram_at bcat mrct ~level <> dfs.(level) then ok := false
      done;
      !ok)

(* -- histogram accounting invariants -- *)

let prop_histogram_accounting =
  prop "level-0 histogram counts the non-empty conflict sets" gen_addresses (fun addrs ->
      let stripped = Strip.strip_addresses addrs in
      let mrct = Mrct.build stripped in
      let hists =
        Dfs_optimizer.histograms ~addresses:stripped.Strip.uniques mrct ~max_level:0
      in
      let recorded = Array.fold_left ( + ) 0 hists.(0) in
      let non_empty = ref 0 in
      Mrct.iter (fun _ set -> if Array.length set > 0 then incr non_empty) mrct;
      recorded = !non_empty)

let prop_level0_misses_formula =
  prop "depth-1 direct-mapped misses = N - N' - consecutive repeats" gen_addresses
    (fun addrs ->
      QCheck2.assume (Array.length addrs > 0);
      let stripped = Strip.strip_addresses addrs in
      let mrct = Mrct.build stripped in
      let hists =
        Dfs_optimizer.histograms ~addresses:stripped.Strip.uniques mrct ~max_level:0
      in
      let misses = Optimizer.misses_of_histogram hists.(0) ~associativity:1 in
      let repeats = ref 0 in
      Array.iteri
        (fun idx a -> if idx > 0 && addrs.(idx - 1) = a then incr repeats)
        addrs;
      misses
      = Strip.num_refs stripped - Strip.num_unique stripped - !repeats)

(* The linear-time postlude against its definition: random per-level
   histograms, including the degenerate [||], [|0|] and all-zero ones,
   under every budget from 0 to just past the largest miss total. *)
let gen_histogram =
  QCheck2.Gen.(
    oneof
      [
        return [||];
        return [| 0 |];
        map (fun n -> Array.make n 0) (int_range 1 8);
        array_size (int_range 0 12) (int_bound 20);
      ])

let prop_postlude_matches_definition =
  prop ~count:300 "of_histograms = upward associativity scan (min assoc, misses, zero-miss)"
    QCheck2.Gen.(
      let* hists = array_size (int_range 1 5) gen_histogram in
      let total = Array.fold_left (fun acc h -> max acc (Array.fold_left ( + ) 0 h)) 0 hists in
      let* k = int_range 0 (total + 3) in
      return (hists, k))
    (fun (hists, k) -> Optimizer.of_histograms ~k hists = Oracle.of_histograms ~k hists)

(* -- the central exactness property -- *)

let analytical_misses addrs ~depth ~associativity =
  let prepared = Analytical.prepare (Trace.of_addresses addrs) in
  Analytical.misses prepared ~depth ~associativity

let simulated_misses addrs ~depth ~associativity =
  (Cache.simulate_addresses (Config.make ~depth ~associativity ()) addrs).Cache.misses

let prop_model_exact_vs_simulator =
  prop ~count:200 "analytical misses = simulated LRU non-cold misses"
    QCheck2.Gen.(triple gen_addresses (map (fun k -> 1 lsl k) (int_bound 5)) (int_range 1 6))
    (fun (addrs, depth, associativity) ->
      QCheck2.assume (Array.length addrs > 0);
      (* clamp depth to the model's address range *)
      let bits = Trace.address_bits (Trace.of_addresses addrs) in
      let depth = min depth (1 lsl bits) in
      analytical_misses addrs ~depth ~associativity
      = simulated_misses addrs ~depth ~associativity)

let prop_model_monotone_in_k =
  prop ~count:100 "required associativity non-increasing in K" gen_addresses (fun addrs ->
      QCheck2.assume (Array.length addrs > 0);
      let prepared = Analytical.prepare (Trace.of_addresses addrs) in
      let explore k = Analytical.explore_prepared prepared ~k in
      let r0 = explore 0 and r5 = explore 5 and r50 = explore 50 in
      Array.for_all2
        (fun (a : Optimizer.level_result) (b : Optimizer.level_result) ->
          b.Optimizer.min_associativity <= a.Optimizer.min_associativity)
        r0.Optimizer.levels r5.Optimizer.levels
      && Array.for_all2
           (fun (a : Optimizer.level_result) (b : Optimizer.level_result) ->
             b.Optimizer.min_associativity <= a.Optimizer.min_associativity)
           r5.Optimizer.levels r50.Optimizer.levels)

let prop_model_monotone_in_depth =
  prop ~count:100 "analytical misses non-increasing in depth (fixed assoc)" gen_addresses
    (fun addrs ->
      QCheck2.assume (Array.length addrs > 0);
      let trace = Trace.of_addresses addrs in
      let result = Analytical.explore trace ~k:0 in
      let stripped = Oracle.stripped trace in
      let misses level =
        let hist = Oracle.histograms stripped ~max_level:level in
        Optimizer.misses_of_histogram hist.(level) ~associativity:2
      in
      let levels = Array.length result.Optimizer.levels in
      let rec check level prev =
        level >= levels
        || (let m = misses level in
            m <= prev && check (level + 1) m)
      in
      check 1 (misses 0))

let test_analytical_facade () =
  let trace = Paper_example.trace () in
  let prepared = Analytical.prepare trace in
  let stripped = Oracle.stripped trace in
  let via_arena = Analytical.explore trace ~k:0 in
  let via_bcat =
    Oracle.bcat_explore stripped ~max_level:(Analytical.max_level prepared) ~k:0
  in
  check_bool "kernel agrees with the BCAT walk" true
    (Optimizer.optimal_pairs via_arena = Optimizer.optimal_pairs via_bcat);
  check_int "misses facade" 5 (Analytical.misses prepared ~depth:1 ~associativity:1);
  check_int "misses bcat" 5 (Oracle.bcat_misses stripped ~level:0 ~associativity:1);
  Alcotest.check_raises "bad depth"
    (Invalid_argument "Analytical.misses: depth must be a positive power of two") (fun () ->
      ignore (Analytical.misses prepared ~depth:3 ~associativity:1))

let prop_explore_many_equals_singles =
  prop ~count:80 "explore_many = per-budget explore" gen_addresses (fun addrs ->
      QCheck2.assume (Array.length addrs > 0);
      let prepared = Analytical.prepare (Trace.of_addresses addrs) in
      let ks = [ 0; 3; 17; 100 ] in
      let many = Analytical.explore_many prepared ~ks in
      let singles = List.map (fun k -> Analytical.explore_prepared prepared ~k) ks in
      List.for_all2
        (fun a b -> Optimizer.optimal_pairs a = Optimizer.optimal_pairs b)
        many singles)

let test_empty_trace () =
  let result = Analytical.explore (Trace.create ()) ~k:0 in
  check_bool "all depths direct-mapped" true
    (List.for_all (fun (_, a) -> a = 1) (Optimizer.optimal_pairs result))

let suites =
  [
    ( "core:zero_one",
      [
        Alcotest.test_case "paper Table 3" `Quick test_zero_one_paper;
        Alcotest.test_case "partition per bit" `Quick test_zero_one_partition;
        Alcotest.test_case "bit bounds" `Quick test_zero_one_bounds;
      ] );
    ( "core:bcat",
      [
        Alcotest.test_case "paper Figure 3" `Quick test_bcat_figure3;
        Alcotest.test_case "rows are low address bits" `Quick test_bcat_rows_are_low_bits;
        Alcotest.test_case "children partition parent" `Quick test_bcat_children_partition;
        Alcotest.test_case "max level clamped" `Quick test_bcat_max_level_clamped;
        Alcotest.test_case "conflict sets and populations" `Quick test_bcat_conflict_sets;
        Alcotest.test_case "singleton trace" `Quick test_bcat_singleton_trace;
      ] );
    ( "core:mrct",
      [
        Alcotest.test_case "paper Table 4" `Quick test_mrct_paper;
        Alcotest.test_case "totals" `Quick test_mrct_totals;
        prop_mrct_matches_brute_force;
        prop_mrct_no_self;
        prop_mrct_set_count;
      ] );
    ( "core:optimizer",
      [
        Alcotest.test_case "paper histograms" `Quick test_optimizer_paper_histograms;
        Alcotest.test_case "paper miss counts" `Quick test_optimizer_paper_misses;
        Alcotest.test_case "zero budget" `Quick test_optimizer_zero_budget;
        Alcotest.test_case "budget of two" `Quick test_optimizer_budget_two;
        Alcotest.test_case "negative budget rejected" `Quick test_optimizer_rejects_negative_budget;
        Alcotest.test_case "optimal pairs" `Quick test_optimal_pairs;
        Alcotest.test_case "DFS on paper example" `Quick test_dfs_paper;
        prop_dfs_equals_bcat_walk;
        prop_postlude_matches_definition;
      ] );
    ( "core:exactness",
      [
        prop_histogram_accounting;
        prop_level0_misses_formula;
        prop_model_exact_vs_simulator;
        prop_model_monotone_in_k;
        prop_model_monotone_in_depth;
        Alcotest.test_case "facade" `Quick test_analytical_facade;
        prop_explore_many_equals_singles;
        Alcotest.test_case "empty trace" `Quick test_empty_trace;
      ] );
  ]
