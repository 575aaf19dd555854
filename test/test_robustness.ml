(* Tests for the robustness layer: the typed error taxonomy, the v2
   binary framing (version byte + CRC-32 footer), lenient ingestion,
   and the kernel's fault-injection hook. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let prop ?(count = 120) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_addresses = QCheck2.Gen.(array_size (int_range 1 250) (int_bound 127))

let with_temp_file suffix f =
  let path = Filename.temp_file "dse_robust" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc bytes)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let io_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

(* -- error taxonomy -- *)

let test_exit_codes () =
  let parse = Dse_error.Parse_error { file = "t"; line = 1; message = "m" } in
  let corrupt = Dse_error.Corrupt_binary { file = "t"; offset = 0; message = "m" } in
  let usage = Dse_error.Constraint_violation { context = "c"; message = "m" } in
  let shard = Dse_error.Shard_failure { shard = 1; attempts = 3; message = "m" } in
  let io = Dse_error.Io_error { file = "t"; message = "m" } in
  check_int "usage" 2 (Dse_error.exit_code usage);
  check_int "io" 3 (Dse_error.exit_code io);
  check_int "parse" 4 (Dse_error.exit_code parse);
  check_int "corrupt" 4 (Dse_error.exit_code corrupt);
  check_int "shard" 5 (Dse_error.exit_code shard);
  check_bool "to_string carries the line" true
    (String.length (Dse_error.to_string parse) > 0
    && String.contains (Dse_error.to_string parse) '1')

let test_crc32_vector () =
  (* the canonical IEEE 802.3 check value *)
  check_int "crc32(123456789)" 0xCBF43926 (Crc32.digest_string "123456789")

(* [Crc32.update_sub] folds 8 bytes per step and the rest one at a time:
   it must equal the plain byte-at-a-time fold for every start
   alignment, every length around the 8-byte steps, and any running
   state. *)
let test_crc32_slicing () =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let bytewise crc b off len =
    let crc = ref crc in
    for i = off to off + len - 1 do
      crc := table.((!crc lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!crc lsr 8)
    done;
    !crc
  in
  let b = Bytes.init 96 (fun i -> Char.chr (((i * 151) + 7) land 0xFF)) in
  List.iter
    (fun crc ->
      for off = 0 to 9 do
        for len = 0 to 80 do
          check_int
            (Printf.sprintf "crc %08x off %d len %d" crc off len)
            (bytewise crc b off len) (Crc32.update_sub crc b off len)
        done
      done)
    [ Crc32.init; 0; 0x12345678; 0xFFFF0000 ]

let test_fault_parse () =
  check_bool "fail" true (Fault.parse "fail" = Some { Fault.kind = Fault.Fail; times = 1 });
  check_bool "fail:3" true (Fault.parse "fail:3" = Some { Fault.kind = Fault.Fail; times = 3 });
  check_bool "hang" true (Fault.parse "hang" = Some { Fault.kind = Fault.Hang; times = 1 });
  check_bool "hang:2" true (Fault.parse "hang:2" = Some { Fault.kind = Fault.Hang; times = 2 });
  List.iter
    (fun s -> check_bool (s ^ " rejected") true (Fault.parse s = None))
    [ "shard"; "shard:1"; "fail:-1"; "hang:-1"; "fail:0"; "fail:x"; "hang:1:2"; "" ]

(* -- binary v2 framing -- *)

let save_v2 path trace = io_ok (Trace_io.save_binary path trace)

let test_v2_header_and_footer () =
  with_temp_file ".bin" (fun path ->
      save_v2 path (Trace.of_addresses [| 1; 2; 1 |]);
      let data = read_file path in
      check_bool "magic" true (Bytes.sub_string data 0 4 = "DSEB");
      check_int "version byte" 2 (Char.code (Bytes.get data 4));
      let body = Bytes.sub_string data 0 (Bytes.length data - 4) in
      let stored = ref 0 in
      for i = 0 to 3 do
        stored :=
          !stored lor (Char.code (Bytes.get data (Bytes.length data - 4 + i)) lsl (8 * i))
      done;
      check_int "footer is the CRC of the body" (Crc32.digest_string body) !stored)

(* a legacy v1 writer, byte-for-byte what the seed emitted *)
let write_v1 path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "DSET";
      let varint v =
        let v = ref v in
        let continue = ref true in
        while !continue do
          let byte = !v land 0x7F in
          v := !v lsr 7;
          if !v = 0 then begin
            output_byte oc byte;
            continue := false
          end
          else output_byte oc (byte lor 0x80)
        done
      in
      varint (Trace.length trace);
      Trace.iter
        (fun (a : Trace.access) ->
          let tag =
            match a.kind with Trace.Fetch -> 0 | Trace.Read -> 1 | Trace.Write -> 2
          in
          varint ((a.Trace.addr lsl 2) lor tag))
        trace)

let prop_v1_still_readable =
  prop "legacy v1 binary files still load" gen_addresses (fun addrs ->
      let t = Trace.of_addresses addrs in
      with_temp_file ".bin" (fun path ->
          write_v1 path t;
          match Trace_io.load_binary path with
          | Ok i -> Trace.to_list i.Trace_io.trace = Trace.to_list t
          | Error _ -> false))

let test_truncation_reports_offset () =
  with_temp_file ".bin" (fun path ->
      save_v2 path (Trace.of_addresses (Array.init 40 (fun i -> i * 129)));
      let data = read_file path in
      write_file path (Bytes.sub data 0 (Bytes.length data - 9));
      match Trace_io.load_binary path with
      | Error (Dse_error.Corrupt_binary { offset; file; _ }) ->
        check_bool "offset within the file" true (offset >= 0 && offset <= Bytes.length data);
        check_bool "file recorded" true (file = path)
      | Ok _ | Error _ -> Alcotest.fail "expected Corrupt_binary")

let test_declared_length_guard () =
  (* a huge declared length must be rejected up front, not allocated *)
  with_temp_file ".bin" (fun path ->
      let oc = open_out_bin path in
      output_string oc "DSET";
      (* LEB128 for 2^40: won't fit the 3 remaining payload bytes *)
      List.iter (output_byte oc) [ 0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x01; 5; 9; 13 ];
      close_out oc;
      match Trace_io.load_binary path with
      | Error (Dse_error.Corrupt_binary _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Corrupt_binary")

(* -- lenient ingestion -- *)

let load_text ?on_error contents =
  with_temp_file ".txt" (fun path ->
      write_file path (Bytes.of_string contents);
      Trace_io.load ?on_error path)

let test_text_lenient_modes () =
  let contents = "R 0x10\nQ zz\nW 0x20\n\nR !!\nF 0x30\n" in
  (match load_text contents with
  | Error (Dse_error.Parse_error { line; _ }) -> check_int "fail stops at line 2" 2 line
  | Ok _ | Error _ -> Alcotest.fail "expected Parse_error");
  (match load_text ~on_error:Trace_io.Skip contents with
  | Ok { trace; skipped; errors } ->
    check_int "skip keeps the good lines" 3 (Trace.length trace);
    check_int "skip counts" 2 skipped;
    check_int "skip reports" 2 (List.length errors)
  | Error _ -> Alcotest.fail "skip must succeed");
  (match load_text ~on_error:(Trace_io.Stop_after 1) contents with
  | Error (Dse_error.Parse_error { line; _ }) -> check_int "budget exhausted at line 5" 5 line
  | Ok _ | Error _ -> Alcotest.fail "expected Parse_error");
  match load_text ~on_error:(Trace_io.Stop_after 2) contents with
  | Ok { skipped; _ } -> check_int "stop-after:2 tolerates both" 2 skipped
  | Error _ -> Alcotest.fail "stop-after:2 must succeed"

let test_text_overlong_line () =
  let long = String.make 5000 'R' in
  (match load_text (long ^ "\n") with
  | Error (Dse_error.Parse_error { message; _ }) ->
    check_bool "mentions the limit" true
      (String.length message > 0 && String.contains message 'e')
  | Ok _ | Error _ -> Alcotest.fail "expected Parse_error");
  match load_text ~on_error:Trace_io.Skip ("R 0x1\n" ^ long ^ "\nR 0x2\n") with
  | Ok { trace; skipped; _ } ->
    check_int "overlong line skipped" 1 skipped;
    check_int "rest kept" 2 (Trace.length trace)
  | Error _ -> Alcotest.fail "skip must succeed"

let test_dinero_lenient () =
  with_temp_file ".din" (fun path ->
      write_file path (Bytes.of_string "0 1a3f\n\n9 10\n2 zz\n1 7f\n");
      (match Trace_io.load_dinero path with
      | Error (Dse_error.Parse_error { line; _ }) -> check_int "first bad line" 3 line
      | Ok _ | Error _ -> Alcotest.fail "expected Parse_error");
      match Trace_io.load_dinero ~on_error:Trace_io.Skip path with
      | Ok { trace; skipped; _ } ->
        check_int "blank line is not an error" 2 skipped;
        check_int "good lines kept" 2 (Trace.length trace)
      | Error _ -> Alcotest.fail "skip must succeed")

let test_binary_lenient_salvage () =
  (* truncated v2 file: Fail aborts, Skip salvages the parsed prefix *)
  with_temp_file ".bin" (fun path ->
      save_v2 path (Trace.of_addresses (Array.init 50 (fun i -> i)));
      let data = read_file path in
      write_file path (Bytes.sub data 0 (Bytes.length data - 10));
      (match Trace_io.load_binary path with
      | Error (Dse_error.Corrupt_binary _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Corrupt_binary");
      match Trace_io.load_binary ~on_error:Trace_io.Skip path with
      | Ok { trace; skipped; _ } ->
        check_int "one structural defect" 1 skipped;
        check_bool "salvaged a prefix" true
          (Trace.length trace > 0 && Trace.length trace < 50)
      | Error _ -> Alcotest.fail "skip must salvage")

let test_missing_file_is_io_error () =
  match Trace_io.load "/nonexistent/definitely/missing.trace" with
  | Error (Dse_error.Io_error _ as e) -> check_int "exit code 3" 3 (Dse_error.exit_code e)
  | Ok _ | Error _ -> Alcotest.fail "expected Io_error"

(* -- strip constraints -- *)

let test_strip_negative_address () =
  (match Strip.strip_addresses_result [| 3; -1; 5 |] with
  | Error (Dse_error.Constraint_violation _ as e) ->
    check_int "exit code 2" 2 (Dse_error.exit_code e)
  | Ok _ | Error _ -> Alcotest.fail "expected Constraint_violation");
  match Strip.address_of (Strip.strip_addresses [| 3 |]) 7 with
  | _ -> Alcotest.fail "expected Constraint_violation"
  | exception Dse_error.Error (Dse_error.Constraint_violation _) -> ()

(* -- the kernel's fault hook -- *)

let with_fault spec f =
  Fault.set (Fault.parse spec);
  Fun.protect
    ~finally:(fun () ->
      Fault.release_hangs ();
      Fault.set None)
    f

let fault_trace () = Synthetic.loop ~base:0 ~body:37 ~iterations:30

(* the one-pass run of [trace] through a file, as [dse explore] makes it *)
let stream_trace trace =
  with_temp_file ".bin" (fun path ->
      ignore (io_ok (Trace_io.save_binary path trace));
      match Analytical.stream_file ~format:`Binary path with
      | Ok s -> (s.Analytical.stats, s.Analytical.histograms)
      | Error e -> Alcotest.fail (Dse_error.to_string e))

let expected_of trace =
  let prepared = Analytical.prepare trace in
  (Analytical.stats prepared, Analytical.histograms prepared)

(* [fail:2] fails the next two runs with the typed internal failure, and
   nothing retries them; the run after those answers as usual *)
let test_fail_raises_shard_failure () =
  let trace = fault_trace () in
  with_fault "fail:2" (fun () ->
      for run = 1 to 2 do
        match stream_trace trace with
        | _ -> Alcotest.failf "run %d: expected Shard_failure" run
        | exception Dse_error.Error (Dse_error.Shard_failure _ as e) ->
          check_int "exit code 5" 5 (Dse_error.exit_code e)
      done;
      check_bool "the next run answers" true (stream_trace trace = expected_of trace))

(* a hang blocks before the run reads anything, until released *)
let test_hang_blocks_until_released () =
  let trace = fault_trace () in
  with_fault "hang" (fun () ->
      let finished = Atomic.make false in
      let run =
        Domain.spawn (fun () ->
            let result = stream_trace trace in
            Atomic.set finished true;
            result)
      in
      Unix.sleepf 0.2;
      check_bool "still blocked" false (Atomic.get finished);
      Fault.release_hangs ();
      check_bool "released, it answers" true (Domain.join run = expected_of trace))

let suites =
  [
    ( "robustness:errors",
      [
        Alcotest.test_case "exit-code scheme" `Quick test_exit_codes;
        Alcotest.test_case "CRC-32 check value" `Quick test_crc32_vector;
        Alcotest.test_case "CRC-32 eight bytes at a time = byte at a time" `Quick
          test_crc32_slicing;
        Alcotest.test_case "DSE_FAULT parsing" `Quick test_fault_parse;
        Alcotest.test_case "missing file is Io_error" `Quick test_missing_file_is_io_error;
        Alcotest.test_case "strip rejects negative addresses" `Quick
          test_strip_negative_address;
      ] );
    ( "robustness:binary-v2",
      [
        Alcotest.test_case "header and CRC footer" `Quick test_v2_header_and_footer;
        prop_v1_still_readable;
        Alcotest.test_case "truncation reports the offset" `Quick
          test_truncation_reports_offset;
        Alcotest.test_case "absurd declared length rejected" `Quick test_declared_length_guard;
      ] );
    ( "robustness:lenient",
      [
        Alcotest.test_case "text fail/skip/stop-after" `Quick test_text_lenient_modes;
        Alcotest.test_case "overlong lines" `Quick test_text_overlong_line;
        Alcotest.test_case "dinero lenient" `Quick test_dinero_lenient;
        Alcotest.test_case "binary salvage" `Quick test_binary_lenient_salvage;
      ] );
    ( "robustness:faults",
      [
        Alcotest.test_case "fail raises Shard_failure, then the next run answers" `Quick
          test_fail_raises_shard_failure;
        Alcotest.test_case "hang blocks until released" `Quick test_hang_blocks_until_released;
      ] );
  ]
