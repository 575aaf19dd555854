(* Golden fixtures for the framed binary formats, a regression test for
   frame-payload allocation, and damage properties over the shared codec
   and every format's public reader.

   The fixture bytes were produced by the encoders that predate the
   shared [Wire] codec; a format change shows up here as a byte diff.
   For every fixture the decoded bytes equal the value they were built
   from, and re-encoding that value gives the bytes back. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

let hex s =
  String.to_seq s |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) |> List.of_seq
  |> String.concat ""

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let with_temp_file f =
  let path = Filename.temp_file "dse_wire" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* -- DSEB: binary trace files -- *)

let access addr kind = { Trace.addr; kind }

(* All three kinds, one- to six-byte records. *)
let small_trace =
  Trace.of_list
    [
      access 0 Trace.Fetch;
      access 0x1f Trace.Read;
      access 0x12345 Trace.Write;
      access 0x3fffffff Trace.Fetch;
      access 129 Trace.Read;
      access (1 lsl 40) Trace.Write;
    ]

let small_trace_hex = "445345420206007d969a12fcffffff0f85048280808080800170c7dcdb"

let encode_trace trace =
  with_temp_file (fun path ->
      ok_or_fail (Trace_io.save_binary path trace);
      read_file path)

let decode_trace bytes =
  with_temp_file (fun path ->
      write_file path bytes;
      (ok_or_fail (Trace_io.load_binary path)).Trace_io.trace)

let test_dseb_small () =
  let fixture = unhex small_trace_hex in
  check_string "encoder bytes" small_trace_hex (hex (encode_trace small_trace));
  let decoded = decode_trace fixture in
  check_bool "decodes to the trace" true (Trace.to_list decoded = Trace.to_list small_trace);
  check_string "re-encodes to the fixture" small_trace_hex (hex (encode_trace decoded))

(* A seeded 2K-reference synthetic file: its length, MD5 and CRC footer
   pin every record's bytes without spelling them out. *)
let synthetic_trace () =
  Synthetic.hot_cold ~seed:11 ~hot:64 ~cold:100_000 ~hot_percent:80 ~length:2048

let synthetic_length = 3702

let synthetic_md5 = "7a10cc89d081cebca3601fe800e13625"

let synthetic_crc = "3693ea86"

let test_dseb_synthetic () =
  let trace = synthetic_trace () in
  let bytes = encode_trace trace in
  check_int "file length" synthetic_length (String.length bytes);
  check_string "file MD5" synthetic_md5 (Digest.to_hex (Digest.string bytes));
  check_string "CRC footer" synthetic_crc (hex (String.sub bytes (String.length bytes - 4) 4));
  let decoded = decode_trace bytes in
  check_int "record count" 2048 (Trace.length decoded);
  check_bool "decodes to the trace" true (Trace.to_list decoded = Trace.to_list trace);
  check_bool "re-encodes to the same bytes" true (encode_trace decoded = bytes)

(* -- DSRV: protocol frames -- *)

(* The bytes one [write] call puts on the wire. *)
let capture write =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      ok_or_fail (write w);
      Unix.close w;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read r chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ())

(* Feeds [bytes] to [read] over a socketpair whose sending side is then
   closed, so a short input ends the stream instead of blocking. *)
let feed bytes read =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let len = String.length bytes in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring a bytes !off (len - !off)
      done;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      read b)

let key fingerprint method_tag domains max_level =
  { Result_cache.fingerprint; method_tag; domains; max_level }

let config = { Protocol.ring_version = 2; nodes = [ "127.0.0.1:7711"; "n2" ]; replication = 2 }

let requests =
  [
    ( "submit exact",
      Protocol.Submit
        {
          name = "fixture";
          trace = Protocol.Full small_trace;
          query = Protocol.Percents [ 5; 10; 200 ];
          method_ = Protocol.Exact Analytical.Arena;
          domains = 3;
          max_level = Some 300;
          deadline = Some 1.5;
        },
      "445352560701300766697874757265030301ac0201000000000000f83f0003050ac80106007d969a12fcffffff0f850482808080808001e4a1b60b" );
    ( "submit approx",
      Protocol.Submit
        {
          name = "";
          trace = Protocol.Full (Trace.of_addresses [| 7; 8; 7 |]);
          query = Protocol.Budget 1_000_000;
          method_ = Protocol.Approx;
          domains = 1;
          max_level = None;
          deadline = None;
        },
      "4453525607010d000401000001c0843d031d211d516980f1" );
    ("ping", Protocol.Ping, "44535256070300de7de525");
    ("health", Protocol.Health, "4453525607040019eba46a");
    ( "replicate",
      Protocol.Replicate { ring_version = 130; records = [ "DSEW-opaque"; "" ] },
      "445352560705108201020b445345572d6f706171756500e1b6e86f" );
    ( "cache-query",
      Protocol.Cache_query
        { ring_version = 0; keys = [ key 0x8123456789ABCDEFL 3 2 (-1); key 42L 4 1 20 ] },
      "445352560706180002efcdab89674523810302002a000000000000000401155b502695" );
    ("ring-status", Protocol.Ring_status, "44535256070700dab88941");
    ( "ring-update",
      Protocol.Ring_update { config },
      "445352560708150202020e3132372e302e302e313a37373131026e32bb00c16c" );
    ( "drain",
      Protocol.Drain { config = { config with ring_version = 3; nodes = [ "n2" ] } },
      "44535256070906030201026e321d6146c1" );
  ]

let stats = { Stats.n = 25_000; n_unique = 2024; address_bits = 14; max_misses = 17_000 }

let bounds est = { Approx_dse.est; lo = est *. 0.5; hi = est *. 1.25 }

let cell assoc = { Approx_dse.assoc; assoc_lo = max 1 (assoc - 1); assoc_hi = assoc + 1 }

let errors =
  [
    Dse_error.Parse_error { file = "f"; line = 3; message = "m" };
    Dse_error.Corrupt_binary { file = "f"; offset = 9; message = "m" };
    Dse_error.Constraint_violation { context = "c"; message = "m" };
    Dse_error.Shard_failure { shard = 1; attempts = 3; message = "m" };
    Dse_error.Io_error { file = "f"; message = "m" };
    Dse_error.Queue_full { pending = 4; max_pending = 4; retry_after = 0.75 };
    Dse_error.Deadline_exceeded { elapsed = 2.25; limit = 1.5 };
    Dse_error.Worker_stalled { elapsed = 3.5; job = "loop-139264" };
    Dse_error.Resource_exhausted { resource = "trace references"; needed = 200_000; budget = 4096 };
    Dse_error.Backend_unavailable { node = "127.0.0.1:7701"; attempts = 3 };
    Dse_error.Stale_ring { seen = 4; expected = 5 };
  ]

let error_hex =
  [
    "4453525607820600016603016d6f6ea1b0";
    "4453525607820601016609016d1c386a76";
    "44535256078205020163016de59131f2";
    "44535256078205030103016d75738687";
    "44535256078205040166016daea6ba7b";
    "4453525607820b050404000000000000e83f9e85d1fd";
    "44535256078211060000000000000240000000000000f83f2742d743";
    "44535256078215070000000000000c400b6c6f6f702d313339323634042ed03d";
    "4453525607821708107472616365207265666572656e636573c09a0c802092e50e10";
    "44535256078211090e3132372e302e302e313a3737303103a85e59b4";
    "445352560782030a0405d05205b5";
  ]

let worker slot busy job =
  { Protocol.slot; busy; job; heartbeat_age = (if busy then 0.125 else 0.); jobs_done = 7 * slot }

let health =
  {
    Protocol.node_id = "node-1";
    start_epoch = 1_700_000_000.25;
    uptime = 86_400.5;
    workers = [ worker 0 true "fir"; worker 1 false "" ];
    workers_replaced = 1;
    queue_depth = 2;
    queue_watermark = 3;
    max_pending = 4;
    shed = 5;
    admission_rejected = 6;
    jobs_completed = 700;
    cache_hits = 300;
    cache_misses = 400;
    cache_entries = 256;
    cache_evictions = 144;
    coalesced_hits = 9;
    wal_enabled = true;
    wal_appends = 401;
    wal_failures = 0;
    peer_hits = 10;
    replicated_in = 11;
    replicated_out = 12;
    replication_lag = 13;
    replication_dropped = 14;
    ring_version = 15;
    draining = false;
    replica_gc_dropped = 16;
  }

let responses =
  [
    ( "result table",
      Protocol.Result
        {
          cache_hit = true;
          outcome =
            Protocol.Table
              {
                Analytical_dse.name = "fir";
                stats;
                percents = [ 5; 10 ];
                budgets = [ 850; 1700 ];
                rows = [ (1, [ 129; 64 ]); (2, [ 3; 1 ]) ];
              };
        },
      "44535256078121010003666972a8c301e80f0ee8840102050a02d206a40d02010281014002020301ce177010" );
    ( "result optimal",
      Protocol.Result
        {
          cache_hit = false;
          outcome =
            Protocol.Optimal
              {
                Optimizer.k = 200;
                levels =
                  [|
                    { Optimizer.level = 0; depth = 1; min_associativity = 300; misses = 150;
                      zero_miss_associativity = 2024 };
                    { Optimizer.level = 1; depth = 2; min_associativity = 1; misses = 0;
                      zero_miss_associativity = 1 };
                  |];
              };
        },
      "445352560781120001c801020001ac029601e80f0102010001f87213bf" );
    ( "result approx table",
      Protocol.Result
        {
          cache_hit = false;
          outcome =
            Protocol.Approx_table
              {
                Approx_dse.name = "zipf";
                n = 1_000_000;
                distinct = bounds 4096.;
                max_misses = bounds 99_000.5;
                alpha = 0.875;
                fit_r2 = 0.99;
                address_bits = 20;
                percents = [ 1 ];
                budgets = [ 990 ];
                rows = [ (4, [ cell 7 ]) ];
              };
        },
      "445352560781560002047a697066c0843d000000000000b040000000000000a040000000000000b44000000000882bf84000000000882be840000000006a36fe40000000000000ec3fae47e17a14aeef3f14010101de07010401070608ed5e236f" );
    ( "result approx optimal",
      Protocol.Result
        {
          cache_hit = true;
          outcome =
            Protocol.Approx_optimal
              {
                Approx_dse.k = 12;
                levels =
                  [ { Approx_dse.level = 3; depth = 8; cell = cell 2; misses = bounds 11. } ];
              };
        },
      "4453525607812101030c010308020103000000000000264000000000000016400000000000802b40669c34e4" );
    ("pong", Protocol.Pong, "4453525607840052732751");
    ( "health reply",
      Protocol.Health_reply health,
      "44535256078550066e6f64652d3100001040fc54d941000000000818f54002000103666972000000000000c03f00010000000000000000000007010203040506bc05ac0290038002900109019103000a0b0c0d0e0f0010a72e0608" );
    ("replicate ack", Protocol.Replicate_ack { stored = 300 }, "44535256078602ac02a4d26945");
    ( "cache reply digest",
      Protocol.Cache_reply { keys = [ key (-1L) 3 4 (-1) ]; records = [] },
      "4453525607870d01ffffffffffffffff030400000d3d5dbc" );
    ( "cache reply records",
      Protocol.Cache_reply { keys = []; records = [ "r1"; "record-2" ] },
      "4453525607870e0002027231087265636f72642d321219eed3" );
    ( "ring reply",
      Protocol.Ring_reply { config; draining = true; pushed = 129 },
      "445352560788180202020e3132372e302e302e313a37373131026e3201810147488cae" );
  ]
  @ List.map2
      (fun e h -> ("error " ^ Dse_error.to_string e, Protocol.Server_error e, h))
      errors error_hex

(* A submission decodes to its record bytes; compare those with the
   sent [Trace.t] by their accesses. *)
let same_request a b =
  match (a, b) with
  | Protocol.Submit sa, Protocol.Submit sb ->
    (match (sa.trace, sb.trace) with
    | Protocol.Records ra, Protocol.Full tb ->
      Trace.to_list (Trace_records.to_trace ra) = Trace.to_list tb
    | _ -> false)
    && sa.name = sb.name && sa.query = sb.query && sa.method_ = sb.method_
    && sa.domains = sb.domains && sa.max_level = sb.max_level && sa.deadline = sb.deadline
  | _ -> a = b

let test_request_fixtures () =
  List.iter
    (fun (name, request, fixture) ->
      let bytes = capture (fun fd -> Protocol.write_request fd request) in
      check_string (name ^ ": encoder bytes") fixture (hex bytes);
      match feed (unhex fixture) (fun fd -> Protocol.read_request fd) with
      | Ok (Some decoded) ->
        check_bool (name ^ ": decodes to the value") true (same_request decoded request);
        check_string (name ^ ": re-encodes to the fixture") fixture
          (hex (capture (fun fd -> Protocol.write_request fd decoded)))
      | Ok None -> Alcotest.failf "%s: read as a clean close" name
      | Error e -> Alcotest.failf "%s: %s" name (Dse_error.to_string e))
    requests;
  (* the retired server-stats request (tag 2), as its encoder wrote it:
     an intact frame, answered with a typed refusal *)
  match feed (unhex "445352560702009f4cfe3c") (fun fd -> Protocol.read_request fd) with
  | Error (Dse_error.Constraint_violation { message; _ }) ->
    check_string "server-stats is retired" "server-stats retired; use health" message
  | Error e -> Alcotest.failf "server-stats: wrong error %s" (Dse_error.to_string e)
  | Ok _ -> Alcotest.fail "server-stats: a retired request decoded"

let test_response_fixtures () =
  List.iter
    (fun (name, response, fixture) ->
      let bytes = capture (fun fd -> Protocol.write_response fd response) in
      check_string (name ^ ": encoder bytes") fixture (hex bytes);
      match feed (unhex fixture) (fun fd -> Protocol.read_response fd) with
      | Ok decoded ->
        check_bool (name ^ ": decodes to the value") true (decoded = response);
        check_string (name ^ ": re-encodes to the fixture") fixture
          (hex (capture (fun fd -> Protocol.write_response fd decoded)))
      | Error e -> Alcotest.failf "%s: %s" name (Dse_error.to_string e))
    responses;
  (* the retired stats reply (tag 0x83) is no response any more *)
  match
    feed (unhex "44535256078308050203030102010490da7a52") (fun fd -> Protocol.read_response fd)
  with
  | Error (Dse_error.Corrupt_binary { message; _ }) ->
    check_string "stats reply is retired" "unknown response tag 131" message
  | Error e -> Alcotest.failf "stats reply: wrong error %s" (Dse_error.to_string e)
  | Ok _ -> Alcotest.fail "stats reply: a retired response decoded"

(* -- frame payloads are read as they arrive -- *)

(* A frame declaring the largest accepted payload, followed by ten
   payload bytes and the end of the stream: the reader must fail with
   [Corrupt_binary] without allocating anything near 256 MiB. *)
let test_declared_payload_not_preallocated () =
  let header = Buffer.create 16 in
  Buffer.add_string header "DSRV";
  Buffer.add_char header (Char.chr Protocol.version);
  Buffer.add_char header '\003';
  Frames.varint header Protocol.max_payload;
  Buffer.add_string header (String.make 10 'x');
  let words () = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  Gc.minor ();
  let top_before = (Gc.quick_stat ()).Gc.top_heap_words in
  let words_before = words () in
  (match feed (Buffer.contents header) (fun fd -> Protocol.read_request fd) with
  | Error (Dse_error.Corrupt_binary _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dse_error.to_string e)
  | Ok _ -> Alcotest.fail "a truncated frame decoded");
  let allocated = words () -. words_before in
  let top_growth = (Gc.quick_stat ()).Gc.top_heap_words - top_before in
  check_bool (Printf.sprintf "allocated %.0f words, under 1M" allocated) true (allocated < 1e6);
  check_bool (Printf.sprintf "top heap grew %d words, under 1M" top_growth) true
    (top_growth < 1_000_000)

(* -- damage: one property set over the codec and every format's reader --

   Each reader is fed random bytes, every truncation of small valid
   inputs and every one of their single-byte xors (one mask per
   position). It must answer with its typed error and nothing else, and
   decoding an n-byte input must allocate at most 64 n + 64 KiB. *)

let prop ?(count = 25) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let truncations s = List.init (String.length s) (fun k -> String.sub s 0 k)

let xors seed s =
  List.init (String.length s) (fun i ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + ((seed + (37 * i)) mod 255))));
      Bytes.to_string b)

(* [bounded input decode] runs [decode] and fails the test if it
   allocated more than 64 bytes per input byte plus 64 KiB. The minor
   heap is emptied first: a minor collection inside the measured call
   would skew the counters. *)
let bounded input decode =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let result = decode () in
  let allocated = Gc.allocated_bytes () -. before in
  let limit = float_of_int ((64 * String.length input) + 65536) in
  if allocated > limit then
    QCheck2.Test.fail_reportf "%d-byte input %s allocated %.0f bytes" (String.length input)
      (hex input) allocated;
  result

let gen_records =
  QCheck2.Gen.(
    list_size (int_bound 30)
      (pair (int_bound (1 lsl 40)) (oneofl [ Trace.Fetch; Trace.Read; Trace.Write ])))

let gen_junk = QCheck2.Gen.(string_size (int_bound 120))

(* Wire: a frame holding a list of trace records, read from a string or
   from a stream that hands out at most [chunk] bytes per read. *)
let wire_frame records =
  let bytes, off, len =
    Wire.framed ~tag:9 ~magic:"TEST" ~version:1 16 (fun p ->
        Wire.put_varint p (List.length records);
        List.iter (fun (addr, kind) -> Wire.put_record p ~addr ~kind) records)
  in
  Bytes.sub_string bytes off len

let wire_stream ~chunk s =
  let pos = ref 0 in
  Wire.of_input ~eof:"end of input" (fun buf off len ->
      let k = min (min len chunk) (String.length s - !pos) in
      Bytes.blit_string s !pos buf off k;
      pos := !pos + k;
      k)

let wire_decode r =
  Wire.magic r "TEST";
  Wire.version r ~name:"test" 1;
  ignore (Wire.byte r);
  let p = Wire.sub r (Wire.length r) in
  Wire.footer r;
  let out = ref [] in
  Wire.records p (Wire.count p "record count") (fun ~addr ~kind -> out := (addr, kind) :: !out);
  Wire.finish p "payload";
  Wire.finish r "frame";
  List.rev !out

let wire_readers s =
  [ Wire.of_string ~eof:"end of input" s; wire_stream ~chunk:1 s; wire_stream ~chunk:7 s ]

(* The same damage is reported at the same offset with the same message
   whether the input is a string or a stream. *)
let malformed s =
  let outcome r =
    match wire_decode r with _ -> None | exception Wire.Malformed (o, m) -> Some (o, m)
  in
  match List.map outcome (wire_readers s) with
  | Some first :: rest -> List.for_all (( = ) (Some first)) rest
  | _ -> false

(* Varints carry at most 63 bits: the largest int round-trips, a wider
   or negative value is rejected at the varint's start, and a varint cut
   short at the offset where the input ended. *)
let test_varint_limits () =
  let decode bytes = Wire.varint (Wire.of_string ~eof:"end" bytes) in
  check_int "max_int" max_int (decode "\xff\xff\xff\xff\xff\xff\xff\xff\x3f");
  let rejects label bytes expected =
    match decode bytes with
    | v -> Alcotest.failf "%s decoded to %d" label v
    | exception Wire.Malformed (offset, message) ->
      Alcotest.(check (pair int string)) label expected (offset, message)
  in
  rejects "64 bits" "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"
    (0, "varint overflows the address space");
  rejects "ten bytes" "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00"
    (0, "varint wider than 63 bits");
  rejects "cut short" "\x80" (1, "end")

let prop_wire_roundtrip =
  prop ~count:100 "wire: frames decode to what was written, from strings and streams"
    gen_records (fun records ->
      let s = wire_frame records in
      List.for_all (fun r -> bounded s (fun () -> wire_decode r) = records) (wire_readers s))

let prop_wire_damage =
  prop "wire: every truncation and byte xor is Malformed" QCheck2.Gen.(pair gen_records nat)
    (fun (records, seed) ->
      let s = wire_frame records in
      List.for_all malformed (truncations s @ xors seed s))

let prop_wire_junk =
  prop ~count:300 "wire: random bytes raise nothing but Malformed" gen_junk (fun junk ->
      List.for_all
        (fun r ->
          match bounded junk (fun () -> wire_decode r) with
          | _ -> true
          | exception Wire.Malformed _ -> true)
        (wire_readers junk))

(* Trace_io: the binary loader, through a file. *)
let load_binary_bytes bytes =
  with_temp_file (fun path ->
      write_file path bytes;
      In_channel.with_open_bin path (fun ic ->
          bounded bytes (fun () -> Trace_io.read_binary ~file:path ic)))

let is_corrupt = function Error (Dse_error.Corrupt_binary _) -> true | _ -> false

let trace_of records = Trace.of_list (List.map (fun (addr, kind) -> access addr kind) records)

(* The legacy v1 reading of [bytes], decoded here without [Wire]:
   "DSET", a LEB128 record count, then that many LEB128 records
   [(addr lsl 2) lor kind], and no footer (bytes after the records are
   not read). [None] where a v1 reader must refuse the bytes: too few of
   them, a varint wider than 63 bits, or kind tag 3. *)
let legacy_v1 bytes =
  let len = String.length bytes in
  let pos = ref 4 in
  let rec varint shift acc =
    if !pos >= len || shift > 56 then None
    else begin
      let b = Char.code bytes.[!pos] in
      incr pos;
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if acc < 0 then None else if b land 0x80 = 0 then Some acc else varint (shift + 7) acc
    end
  in
  let kinds = [| Trace.Fetch; Trace.Read; Trace.Write |] in
  let rec records k n acc =
    if k = n then Some (List.rev acc)
    else
      match varint 0 0 with
      | Some v when v land 3 < 3 -> records (k + 1) n (access (v lsr 2) kinds.(v land 3) :: acc)
      | _ -> None
  in
  if len < 4 || String.sub bytes 0 4 <> "DSET" then None
  else Option.bind (varint 0 0) (fun n -> records 0 n [])

(* A damaged v2 file is [Corrupt_binary], except where the damage turned
   the magic "DSEB" into the legacy "DSET": those bytes are a v1 file,
   and must load as one (or be refused as one). *)
let damaged_file_reads_right d =
  let loaded = load_binary_bytes d in
  if String.length d >= 4 && String.sub d 0 4 = "DSET" then
    match (legacy_v1 d, loaded) with
    | Some records, Ok ingest -> Trace.to_list ingest.Trace_io.trace = records
    | None, loaded -> is_corrupt loaded
    | Some _, Error _ -> false
  else is_corrupt loaded

let prop_trace_io_damage =
  prop "trace_io: every truncation and byte xor is Corrupt_binary"
    QCheck2.Gen.(pair gen_records nat)
    (fun (records, seed) ->
      let s = encode_trace (trace_of records) in
      List.for_all damaged_file_reads_right (truncations s @ xors seed s))

(* Inputs of the property above (seeds 6 and 39) whose magic byte xor
   made "DSET": each is a valid v1 file. *)
let test_dset_xor_reads_as_legacy () =
  List.iter
    (fun h ->
      let d = unhex h in
      check_bool (h ^ " is a v1 file") true (legacy_v1 d <> None);
      check_bool (h ^ " loads as one") true (damaged_file_reads_right d))
    [
      "445345540200e1cf5ab7";
      "44534554020a88db87e38b27a0addfb4c96da1d38ac8b15f82a6ef9ee65daee990a88477bccd8aa48070ed9cbf9ff24eb9ae9fea9277e18bfbc0a066eca197c4d64b940173ae";
      "445345540211aee69af5d912c5b591b486488a8cfed5fd38b2c0eade821fb98cdaf3c152a5d3eeb7d623eaa0e7e7f643b4dbaaaf84728d9ba4c9a120dedfc3f1ff15c2b184c99e09dce89ca7fd3aa5ce91b6da1f98a2c5f0b11aaab6a1a8b35de19b8aaac414eeb3e487b831f5ca8f5b";
    ]

let prop_trace_io_junk =
  prop ~count:300 "trace_io: random bytes are a typed result" gen_junk (fun junk ->
      (* junk behind a v1 magic reaches the record loop *)
      List.for_all
        (fun bytes -> match load_binary_bytes bytes with Ok _ | Error _ -> true)
        [ junk; "DSET" ^ junk; "DSEB\002" ^ junk ])

(* Protocol: every golden frame, and arbitrary payloads sealed in a
   valid envelope so that the payload decoders see them. *)
let read_request_bytes bytes =
  feed bytes (fun fd -> bounded bytes (fun () -> Protocol.read_request fd))

let read_response_bytes bytes =
  feed bytes (fun fd -> bounded bytes (fun () -> Protocol.read_response fd))

let prop_protocol_damage =
  prop ~count:5 "protocol: every truncation and byte xor of a golden frame is Corrupt_binary"
    QCheck2.Gen.nat (fun seed ->
      let damaged hex = List.tl (truncations (unhex hex)) @ xors seed (unhex hex) in
      List.for_all
        (fun (_, _, hex) -> List.for_all (fun d -> is_corrupt (read_request_bytes d)) (damaged hex))
        requests
      && List.for_all
           (fun (_, _, hex) ->
             List.for_all (fun d -> is_corrupt (read_response_bytes d)) (damaged hex))
           responses
      && read_request_bytes "" = Ok None
      && match read_response_bytes "" with Error (Dse_error.Io_error _) -> true | _ -> false)

let prop_protocol_junk =
  prop ~count:300 "protocol: random bytes and payloads are a typed result"
    QCheck2.Gen.(pair gen_junk (int_bound 17))
    (fun (junk, pick) ->
      let tag = if pick < 9 then 1 + pick else 0x81 + (pick - 9) in
      let framed = Bytes.to_string (Frames.frame ~tag junk) in
      List.for_all
        (fun bytes ->
          (match read_request_bytes bytes with Ok _ | Error _ -> true)
          && match read_response_bytes bytes with Ok _ | Error _ -> true)
        [ junk; framed ])

(* Wal: one record as a replication payload, and a two-record log. *)
let wal_key i = key (Int64.of_int (i * 7919)) 3 1 (-1)

let wal_entry records =
  Result_cache.Exact
    {
      stats = { Stats.n = List.length records; n_unique = 3; address_bits = 12; max_misses = 5 };
      histograms = [| Array.of_list (List.map fst records); [| 1; 2 |] |];
    }

let wal_record i records =
  match Wal.encode_record (wal_key i) (wal_entry records) with
  | Some r -> r
  | None -> Alcotest.fail "exact entry not encoded"

let decode_wal bytes = bounded bytes (fun () -> Wal.decode_record bytes)

let replay_bytes bytes =
  with_temp_file (fun path ->
      write_file path bytes;
      match Wal.replay path with
      | Ok r -> r
      | Error e -> Alcotest.failf "replay: %s" (Dse_error.to_string e))

let prop_wal_damage =
  prop "wal: a damaged record decodes to None; a damaged log keeps the other record"
    QCheck2.Gen.(pair gen_records nat)
    (fun (records, seed) ->
      let first = wal_record 1 records and second = wal_record 2 [] in
      let survivor = (wal_key 2, Result_cache.Packed second) in
      List.for_all (fun d -> decode_wal d = None) (truncations first @ xors seed first)
      && List.for_all
           (fun d ->
             let r = replay_bytes (d ^ second) in
             r.Wal.entries = [ survivor ] && (r.Wal.damaged >= 1 || r.Wal.truncated))
           (List.tl (truncations first) @ xors seed first))

(* Seed 91 of the property above: a record cut short by its last CRC
   byte, then [wal_record 2 []], whose magic's "D" (0x44) completes the
   cut record's CRC. The cut record is damage and the next one is
   kept. *)
let test_wal_torn_record_keeps_next () =
  let log =
    unhex
      "445345570126ef1e00000000000003010003030c050203a5a0eadfc21bce8da3bfe7178085b8ca961e020102438683445345570114de3d00000000000003010000030c050200020102adcac7e1"
  in
  check_int "a 77-byte log" 77 (String.length log);
  let r = replay_bytes log in
  check_bool "the intact record survives" true
    (r.Wal.entries = [ (wal_key 2, Result_cache.Packed (wal_record 2 [])) ]);
  check_bool "the torn one is damage" true (r.Wal.damaged >= 1)

let prop_wal_junk =
  prop ~count:300 "wal: random bytes decode to None and replay without raising" gen_junk
    (fun junk ->
      decode_wal junk = None
      && decode_wal ("DSEW\001" ^ junk) = None
      && (replay_bytes ("DSEW\001" ^ junk)).Wal.intact = 0)

let suites =
  [
    ( "wire:golden",
      [
        Alcotest.test_case "DSEB small trace bytes" `Quick test_dseb_small;
        Alcotest.test_case "DSEB synthetic file digest" `Quick test_dseb_synthetic;
        Alcotest.test_case "DSRV request frames" `Quick test_request_fixtures;
        Alcotest.test_case "DSRV response frames" `Quick test_response_fixtures;
      ] );
    ( "wire:damage",
      [
        Alcotest.test_case "DSRV payload is not allocated before it arrives" `Quick
          test_declared_payload_not_preallocated;
        Alcotest.test_case "wire: varint limits" `Quick test_varint_limits;
        prop_wire_roundtrip;
        prop_wire_damage;
        prop_wire_junk;
        prop_trace_io_damage;
        Alcotest.test_case "trace_io: a DSEB-to-DSET xor reads as v1" `Quick
          test_dset_xor_reads_as_legacy;
        prop_trace_io_junk;
        prop_protocol_damage;
        prop_protocol_junk;
        prop_wal_damage;
        Alcotest.test_case "wal: a torn record never swallows the next" `Quick
          test_wal_torn_record_keeps_next;
        prop_wal_junk;
      ] );
  ]

