(* Tests for the trace substrate: builder, stripping (paper Tables 1/2),
   statistics (Tables 5/6 methodology), and file I/O. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_int_array = Alcotest.(check (array int))

let test_build_and_get () =
  let t = Trace.create ~capacity:2 () in
  Trace.add t ~addr:5 ~kind:Trace.Read;
  Trace.add t ~addr:6 ~kind:Trace.Write;
  Trace.add t ~addr:7 ~kind:Trace.Fetch;
  check_int "length" 3 (Trace.length t);
  check_int "addr 1" 6 (Trace.addr t 1);
  check_bool "kind 1" true (Trace.equal_kind Trace.Write (Trace.kind t 1));
  check_bool "kind 2" true (Trace.equal_kind Trace.Fetch (Trace.kind t 2));
  let a = Trace.get t 0 in
  check_int "get addr" 5 a.Trace.addr

let test_growth () =
  let t = Trace.create ~capacity:1 () in
  for k = 0 to 999 do
    Trace.add t ~addr:k ~kind:Trace.Read
  done;
  check_int "length" 1000 (Trace.length t);
  check_int "last" 999 (Trace.addr t 999)

let test_negative_address_rejected () =
  let t = Trace.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Trace.add: negative address")
    (fun () -> Trace.add t ~addr:(-1) ~kind:Trace.Read)

let test_index_out_of_range () =
  let t = Trace.of_addresses [| 1 |] in
  Alcotest.check_raises "get" (Invalid_argument "Trace: index 1 out of [0, 1)") (fun () ->
      ignore (Trace.get t 1))

let test_of_to_list () =
  let accesses =
    [
      { Trace.addr = 1; kind = Trace.Fetch };
      { Trace.addr = 2; kind = Trace.Read };
      { Trace.addr = 1; kind = Trace.Write };
    ]
  in
  let t = Trace.of_list accesses in
  check_bool "roundtrip" true (Trace.to_list t = accesses)

let test_filter_kinds () =
  let t =
    Trace.of_list
      [
        { Trace.addr = 1; kind = Trace.Fetch };
        { Trace.addr = 2; kind = Trace.Read };
        { Trace.addr = 3; kind = Trace.Write };
      ]
  in
  let data = Trace.filter Trace.is_data t in
  let fetches = Trace.filter Trace.is_fetch t in
  check_int_array "data" [| 2; 3 |] (Trace.addresses data);
  check_int_array "fetches" [| 1 |] (Trace.addresses fetches)

let test_max_addr_bits () =
  check_int "empty max" 0 (Trace.max_addr (Trace.create ()));
  check_int "empty bits" 1 (Trace.address_bits (Trace.create ()));
  let t = Trace.of_addresses [| 0; 7; 3 |] in
  check_int "max" 7 (Trace.max_addr t);
  check_int "bits 7" 3 (Trace.address_bits t);
  check_int "bits 8" 4 (Trace.address_bits (Trace.of_addresses [| 8 |]))

let test_append () =
  let a = Trace.of_addresses [| 1; 2 |] in
  let b = Trace.of_addresses ~kind:Trace.Write [| 3 |] in
  Trace.append a b;
  check_int "length" 3 (Trace.length a);
  check_bool "kind" true (Trace.equal_kind Trace.Write (Trace.kind a 2))

(* -- stripping -- *)

let test_strip_paper_example () =
  let s = Strip.strip (Paper_example.trace ()) in
  check_int "N" 10 (Strip.num_refs s);
  check_int "N'" 5 (Strip.num_unique s);
  check_int_array "uniques in first-occurrence order" Paper_example.uniques s.Strip.uniques;
  check_int_array "reconstruct" Paper_example.addresses (Strip.reconstruct s);
  check_int "address bits" 4 (Strip.address_bits s)

let test_strip_ids_dense () =
  let s = Strip.strip (Paper_example.trace ()) in
  check_int_array "ids" [| 0; 1; 2; 3; 0; 4; 1; 3; 0; 2 |] s.Strip.ids

let test_strip_empty () =
  let s = Strip.strip (Trace.create ()) in
  check_int "N" 0 (Strip.num_refs s);
  check_int "N'" 0 (Strip.num_unique s)

let test_strip_all_same () =
  let s = Strip.strip (Trace.of_addresses (Array.make 50 9)) in
  check_int "N'" 1 (Strip.num_unique s);
  check_int "address_of" 9 (Strip.address_of s 0)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let gen_addresses = QCheck2.Gen.(array_size (int_range 0 300) (int_bound 63))

let prop_strip_reconstruct =
  prop "strip/reconstruct roundtrip" gen_addresses (fun addrs ->
      Strip.reconstruct (Strip.strip_addresses addrs) = addrs)

let prop_strip_unique_count =
  prop "N' = distinct count" gen_addresses (fun addrs ->
      let module Iset = Set.Make (Int) in
      Strip.num_unique (Strip.strip_addresses addrs)
      = Iset.cardinal (Iset.of_list (Array.to_list addrs)))

let prop_strip_first_occurrence_order =
  prop "uniques keep first-occurrence order" gen_addresses (fun addrs ->
      let s = Strip.strip_addresses addrs in
      let seen = Hashtbl.create 16 in
      let firsts = ref [] in
      Array.iter
        (fun a ->
          if not (Hashtbl.mem seen a) then begin
            Hashtbl.add seen a ();
            firsts := a :: !firsts
          end)
        addrs;
      s.Strip.uniques = Array.of_list (List.rev !firsts))

(* -- statistics -- *)

let test_stats_paper_example () =
  let stats = Stats.compute (Paper_example.trace ()) in
  check_int "N" 10 stats.Stats.n;
  check_int "N'" 5 stats.Stats.n_unique;
  check_int "bits" 4 stats.Stats.address_bits;
  (* no consecutive repeats: depth-1 total misses = 10, minus 5 cold *)
  check_int "max misses" 5 stats.Stats.max_misses

let test_stats_repeats () =
  let stats = Stats.compute (Trace.of_addresses [| 4; 4; 4 |]) in
  check_int "max misses all-same" 0 stats.Stats.max_misses;
  let stats = Stats.compute (Trace.of_addresses [| 1; 2; 1; 2 |]) in
  check_int "max misses alternating" 2 stats.Stats.max_misses

let test_stats_budget () =
  let stats = Stats.compute (Trace.of_addresses [| 1; 2; 1; 2; 1; 2; 1; 2; 1; 2; 1; 2 |]) in
  check_int "max misses" 10 stats.Stats.max_misses;
  check_int "5%" 0 (Stats.budget stats ~percent:5);
  check_int "20%" 2 (Stats.budget stats ~percent:20);
  check_int "100%" 10 (Stats.budget stats ~percent:100);
  Alcotest.check_raises "negative percent"
    (Invalid_argument "Stats.budget: negative percent") (fun () ->
      ignore (Stats.budget stats ~percent:(-1)))

let prop_stats_max_misses_vs_simulator =
  prop "max_misses equals depth-1 simulator" gen_addresses (fun addrs ->
      let trace = Trace.of_addresses addrs in
      let stats = Stats.compute trace in
      let sim = Cache.simulate (Config.make ~depth:1 ~associativity:1 ()) trace in
      stats.Stats.max_misses = sim.Cache.misses)

(* -- file I/O -- *)

let io_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected I/O error: %s" (Dse_error.to_string e)

let roundtrip trace =
  let path = Filename.temp_file "dse_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      io_ok (Trace_io.save path trace);
      (io_ok (Trace_io.load path)).Trace_io.trace)

let test_io_roundtrip () =
  let t =
    Trace.of_list
      [
        { Trace.addr = 0x1a3f; kind = Trace.Read };
        { Trace.addr = 0; kind = Trace.Fetch };
        { Trace.addr = 77; kind = Trace.Write };
      ]
  in
  check_bool "roundtrip" true (Trace.to_list (roundtrip t) = Trace.to_list t)

let test_io_comments_and_blanks () =
  let contents = "# a comment\n\nR 0x10\n  W 0x20  \n" in
  let path = Filename.temp_file "dse_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      let t = (io_ok (Trace_io.load path)).Trace_io.trace in
      check_int "length" 2 (Trace.length t);
      check_int_array "addresses" [| 0x10; 0x20 |] (Trace.addresses t))

let test_io_malformed () =
  let attempt contents =
    let path = Filename.temp_file "dse_trace" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        match Trace_io.load path with Ok _ -> None | Error e -> Some e)
  in
  check_bool "bad kind" true (attempt "Q 0x10\n" <> None);
  check_bool "bad address" true (attempt "R zz\n" <> None);
  check_bool "missing field" true (attempt "R\n" <> None);
  check_bool "line number reported" true
    (match attempt "R 0x1\nQ 0x2\n" with
    | Some (Dse_error.Parse_error { line; _ }) -> line = 2
    | Some _ | None -> false)

let test_binary_roundtrip () =
  let t =
    Trace.of_list
      [
        { Trace.addr = 0; kind = Trace.Fetch };
        { Trace.addr = 0x7FFFFFF; kind = Trace.Read };
        { Trace.addr = 129; kind = Trace.Write };
      ]
  in
  let path = Filename.temp_file "dse_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      io_ok (Trace_io.save_binary path t);
      let back = (io_ok (Trace_io.load_binary path)).Trace_io.trace in
      check_bool "roundtrip" true (Trace.to_list back = Trace.to_list t))

let prop_binary_roundtrip =
  prop "binary roundtrip (random traces)" gen_addresses (fun addrs ->
      let t = Trace.of_addresses addrs in
      let path = Filename.temp_file "dse_trace" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          match Trace_io.save_binary path t with
          | Error _ -> false
          | Ok () -> (
            match Trace_io.load_binary path with
            | Ok i -> Trace.to_list i.Trace_io.trace = Trace.to_list t
            | Error _ -> false)))

let test_binary_bad_magic () =
  let path = Filename.temp_file "dse_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOPE";
      close_out oc;
      check_bool "rejected" true
        (match Trace_io.load_binary path with
        | Error (Dse_error.Corrupt_binary _) -> true
        | Ok _ | Error _ -> false))

let test_dinero_import () =
  let contents = "0 1a3f\n1 0\n2 7f\n\n0 0x10\n" in
  let path = Filename.temp_file "dse_trace" ".din" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      let t = (io_ok (Trace_io.load_dinero path)).Trace_io.trace in
      check_int "length" 4 (Trace.length t);
      check_int_array "addresses" [| 0x1a3f; 0; 0x7f; 0x10 |] (Trace.addresses t);
      check_bool "kinds" true
        (Trace.equal_kind Trace.Read (Trace.kind t 0)
        && Trace.equal_kind Trace.Write (Trace.kind t 1)
        && Trace.equal_kind Trace.Fetch (Trace.kind t 2)))

let test_dinero_malformed () =
  let attempt contents =
    let path = Filename.temp_file "dse_trace" ".din" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        match Trace_io.load_dinero path with
        | Error (Dse_error.Parse_error _) -> true
        | Ok _ | Error _ -> false)
  in
  check_bool "bad label" true (attempt "9 1a\n");
  check_bool "bad address" true (attempt "0 zz\n")

(* The fingerprint is a persisted cache key (WAL records, replicas), so
   its values are pinned: 64-bit FNV-1a over each address's 8 LE bytes,
   then the length. *)
let test_fingerprint_pinned () =
  let check label expected addrs =
    Alcotest.(check int64) label expected (Trace.fingerprint (Trace.of_addresses addrs));
    let streamed = Array.fold_left Trace.fingerprint_add Trace.fingerprint_init addrs in
    Alcotest.(check int64)
      (label ^ " (streamed)")
      expected
      (Trace.fingerprint_finish streamed ~len:(Array.length addrs))
  in
  check "empty" 0xa8c7f832281a39c5L [||];
  check "wide addresses" 0xfcfb480b7e548fa8L [| 0; 1; 0x40; 0x1234_5678_9abc; max_int; 4096 |];
  check "1000 scattered" 0xc32347919c2e4916L
    (Array.init 1000 (fun i -> i * 2654435761))

let suites =
  [
    ( "trace:unit",
      [
        Alcotest.test_case "build and get" `Quick test_build_and_get;
        Alcotest.test_case "fingerprint values are pinned" `Quick test_fingerprint_pinned;
        Alcotest.test_case "growth" `Quick test_growth;
        Alcotest.test_case "negative address rejected" `Quick test_negative_address_rejected;
        Alcotest.test_case "index out of range" `Quick test_index_out_of_range;
        Alcotest.test_case "of/to list" `Quick test_of_to_list;
        Alcotest.test_case "filter by kind" `Quick test_filter_kinds;
        Alcotest.test_case "max_addr / address_bits" `Quick test_max_addr_bits;
        Alcotest.test_case "append" `Quick test_append;
      ] );
    ( "trace:strip",
      [
        Alcotest.test_case "paper running example (Tables 1/2)" `Quick test_strip_paper_example;
        Alcotest.test_case "identifier sequence" `Quick test_strip_ids_dense;
        Alcotest.test_case "empty trace" `Quick test_strip_empty;
        Alcotest.test_case "single repeated address" `Quick test_strip_all_same;
        prop_strip_reconstruct;
        prop_strip_unique_count;
        prop_strip_first_occurrence_order;
      ] );
    ( "trace:stats",
      [
        Alcotest.test_case "paper running example" `Quick test_stats_paper_example;
        Alcotest.test_case "repeats" `Quick test_stats_repeats;
        Alcotest.test_case "budget" `Quick test_stats_budget;
        prop_stats_max_misses_vs_simulator;
      ] );
    ( "trace:io",
      [
        Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
        Alcotest.test_case "malformed input" `Quick test_io_malformed;
        Alcotest.test_case "binary roundtrip" `Quick test_binary_roundtrip;
        prop_binary_roundtrip;
        Alcotest.test_case "binary bad magic" `Quick test_binary_bad_magic;
        Alcotest.test_case "dinero import" `Quick test_dinero_import;
        Alcotest.test_case "dinero malformed" `Quick test_dinero_malformed;
      ] );
  ]
