(* Tests for the benchmark suite: every kernel's VM checksum must equal
   its native reference, and the traces must be well-formed workloads
   (non-trivial size, real data reuse). *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let checksum_case (b : Workload.t) =
  Alcotest.test_case (b.Workload.name ^ " checksum = reference") `Quick (fun () ->
      check_int "checksum" (b.Workload.reference ()) (Workload.checksum b))

let trace_shape_case (b : Workload.t) =
  Alcotest.test_case (b.Workload.name ^ " traces well-formed") `Quick (fun () ->
      let itrace, dtrace = Workload.traces b in
      let istats = Stats.compute itrace and dstats = Stats.compute dtrace in
      check_bool "instruction trace non-trivial" true (istats.Stats.n > 1000);
      check_bool "data trace non-trivial" true (dstats.Stats.n >= 500);
      check_bool "instruction reuse" true (istats.Stats.n_unique < istats.Stats.n);
      check_bool "data reuse" true (dstats.Stats.n_unique < dstats.Stats.n);
      check_bool "instruction conflicts exist" true (istats.Stats.max_misses > 0);
      check_bool "data conflicts exist" true (dstats.Stats.max_misses > 0);
      check_bool "fetch kinds only" true
        (Trace.to_list itrace |> List.for_all (fun a -> Trace.equal_kind Trace.Fetch a.Trace.kind));
      check_bool "data kinds only" true
        (Trace.to_list dtrace |> List.for_all Trace.is_data))

let test_registry_complete () =
  Alcotest.(check (list string))
    "the paper's 12 benchmarks"
    [
      "adpcm"; "bcnt"; "blit"; "compress"; "crc"; "des"; "engine"; "fir"; "g3fax";
      "pocsag"; "qurt"; "ucbqsort";
    ]
    (Registry.names ())

let test_registry_find () =
  check_bool "find" true ((Registry.find "crc").Workload.name = "crc");
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Registry.find "nope"))

let test_traces_deterministic () =
  let b = Registry.find "fir" in
  let i1, d1 = Workload.traces b in
  let i2, d2 = Workload.traces b in
  check_bool "instruction traces equal" true
    (Trace.addresses i1 = Trace.addresses i2);
  check_bool "data traces equal" true (Trace.addresses d1 = Trace.addresses d2)

(* Regression: qurt's r2 root array must not be clobbered by the call
   stack (they once overlapped). *)
let test_qurt_stack_separation () =
  let b = Registry.find "qurt" in
  let result = Workload.run b in
  (* the r2 array ends at 1999 and the stack grows down from 2040; the
     gap 2000..2036 must stay untouched, proving the stack never reaches
     the data (it once did). *)
  let gap_clean = ref true in
  for addr = 2000 to 2036 do
    if result.Machine.memory.(addr) <> 0 then gap_clean := false
  done;
  check_bool "gap between roots and stack untouched" true !gap_clean;
  check_int "checksum" (b.Workload.reference ()) (Machine.return_value result)

let test_benchmarks_halt_within_budget () =
  List.iter
    (fun (b : Workload.t) ->
      let result = Workload.run b in
      check_bool (b.Workload.name ^ " steps below budget") true
        (result.Machine.steps < b.Workload.max_steps))
    (Registry.all ())

let test_programs_encode () =
  (* every benchmark program must fit the binary instruction format *)
  List.iter
    (fun (b : Workload.t) ->
      let program = Asm.assemble b.Workload.program in
      let recovered = Encode.decode_program (Encode.encode_program program) in
      check_bool (b.Workload.name ^ " encodes") true (recovered = program))
    (Registry.all ())

let test_data_gen_deterministic () =
  check_bool "lcg" true (Data_gen.lcg_stream ~seed:1 16 = Data_gen.lcg_stream ~seed:1 16);
  check_bool "uniform bounds" true
    (Array.for_all (fun v -> v >= 0 && v < 17) (Data_gen.uniform ~seed:3 ~bound:17 500));
  check_bool "waveform bounded" true
    (Array.for_all (fun v -> v >= -30000 && v <= 30000) (Data_gen.waveform ~seed:5 500));
  check_bool "text bytes" true
    (Array.for_all (fun v -> v >= 0 && v < 256) (Data_gen.text_like ~seed:7 500))

let test_runs_bitstream_shape () =
  let words, nibbles = Data_gen.runs_bitstream ~seed:9 ~lines:3 ~width:50 in
  check_bool "words sized" true (Array.length words = (nibbles + 7) / 8);
  (* decoding the stream must yield exactly lines * width pixels *)
  let total = ref 0 in
  let run = ref 0 in
  for idx = 0 to nibbles - 1 do
    let nib = (words.(idx / 8) lsr (4 * (idx mod 8))) land 0xF in
    if nib = 15 then run := !run + 15
    else begin
      total := !total + !run + nib;
      run := 0
    end
  done;
  check_int "pixels" (3 * 50) !total

let test_scaled_variants () =
  (* a sample of kernels at scale 2: checksums must match the scaled
     references, names must carry the suffix, traces must grow *)
  List.iter
    (fun (make : scale:int -> Workload.t) ->
      let base = make ~scale:1 in
      let doubled = make ~scale:2 in
      check_int (doubled.Workload.name ^ " checksum") (doubled.Workload.reference ())
        (Workload.checksum doubled);
      check_bool "name suffixed" true
        (doubled.Workload.name = base.Workload.name ^ "@2");
      let n trace = Trace.length trace in
      let _, d1 = Workload.traces base in
      let _, d2 = Workload.traces doubled in
      check_bool (base.Workload.name ^ " data trace grows") true (n d2 > n d1))
    [ Fir.make; Engine.make; Qurt.make; Compress.make ]

let test_scaled_registry () =
  check_int "suite size" 12 (List.length (Registry.scaled 2));
  check_bool "scale 1 names match" true
    (List.map (fun (b : Workload.t) -> b.Workload.name) (Registry.scaled 1) = Registry.names ())

let test_scale_validation () =
  Alcotest.check_raises "fir" (Invalid_argument "Fir.make: scale must be >= 1") (fun () ->
      ignore (Fir.make ~scale:0))

let test_w32_ops () =
  check_int "sign32 wrap" (-2147483648) (W32.sign32 0x80000000);
  check_int "sign32 id" 5 (W32.sign32 5);
  check_int "u32 of negative" 0xFFFFFFFF (W32.u32 (-1));
  check_int "add wraps" (-2147483648) (W32.add 0x7FFFFFFF 1);
  check_int "mul wraps" 0 (W32.mul 0x10000 0x10000);
  check_int "srl" 0x7FFFFFFF (W32.srl (-1) 1);
  check_int "sra" (-1) (W32.sra (-1) 1);
  check_int "sll wrap" (-2147483648) (W32.sll 1 31)

let suites =
  [
    ("powerstone:checksums", List.map checksum_case (Registry.all ()));
    ("powerstone:traces", List.map trace_shape_case (Registry.all ()));
    ( "powerstone:infrastructure",
      [
        Alcotest.test_case "registry complete" `Quick test_registry_complete;
        Alcotest.test_case "registry find" `Quick test_registry_find;
        Alcotest.test_case "traces deterministic" `Quick test_traces_deterministic;
        Alcotest.test_case "qurt stack separation" `Quick test_qurt_stack_separation;
        Alcotest.test_case "all halt within budget" `Quick test_benchmarks_halt_within_budget;
        Alcotest.test_case "all programs encode" `Quick test_programs_encode;
        Alcotest.test_case "data generation deterministic" `Quick test_data_gen_deterministic;
        Alcotest.test_case "runs bitstream decodes to full lines" `Quick test_runs_bitstream_shape;
        Alcotest.test_case "scaled variants" `Slow test_scaled_variants;
        Alcotest.test_case "scaled registry" `Quick test_scaled_registry;
        Alcotest.test_case "scale validation" `Quick test_scale_validation;
        Alcotest.test_case "w32 operations" `Quick test_w32_ops;
      ] );
  ]
