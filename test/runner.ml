(* Single Alcotest entry point aggregating every area's suites. *)

let () =
  Alcotest.run "cache_dse"
    (List.concat
       [
         Test_bitset.suites;
         Test_trace.suites;
         Test_robustness.suites;
         Test_wire.suites;
         Test_cachesim.suites;
         Test_core.suites;
         Test_arena.suites;
         Test_vm.suites;
         Test_asm_parser.suites;
         Test_powerstone.suites;
         Test_explorer.suites;
         Test_approx.suites;
         Test_server.suites;
         Test_router.suites;
         Test_selfheal.suites;
         Test_replication.suites;
         Test_membership.suites;
         Test_supervision.suites;
         Test_extensions.suites;
         Test_cost.suites;
         Test_hierarchy.suites;
         Test_minic.suites;
         Test_minic_programs.suites;
         Test_hierarchy_dse.suites;
       ])
