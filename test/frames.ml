(* Hand-built frames, for wire inputs the typed encoder cannot produce:
   a retired or unknown method byte, a declared reference count with no
   records behind it, an arbitrary payload under a valid envelope. Built
   with their own varint and CRC code, independent of the codec under
   test. *)

let rec varint buf v =
  if v < 0x80 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (v land 0x7F lor 0x80));
    varint buf (v lsr 7)
  end

(* [frame ~tag payload] seals [payload] as a v7 frame. *)
let frame ~tag payload =
  let frame = Buffer.create 64 in
  Buffer.add_string frame "DSRV";
  Buffer.add_char frame (Char.chr Protocol.version);
  Buffer.add_char frame (Char.chr tag);
  varint frame (String.length payload);
  Buffer.add_string frame payload;
  let crc = Crc32.digest_string (Buffer.contents frame) in
  for i = 0 to 3 do
    Buffer.add_char frame (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Buffer.to_bytes frame

(* [submit ~method_byte ~declared addrs] is a complete v7 Submit frame
   (budget query, one domain, no max_level, no deadline) declaring
   [declared] references and carrying [addrs] as read records. *)
let submit ?(name = "raw") ~method_byte ~declared addrs =
  let payload = Buffer.create 64 in
  varint payload (String.length name);
  Buffer.add_string payload name;
  Buffer.add_char payload (Char.chr method_byte);
  varint payload 1 (* domains *);
  Buffer.add_char payload '\000' (* no max_level *);
  Buffer.add_char payload '\000' (* no deadline *);
  Buffer.add_char payload '\001' (* query: budget *);
  varint payload 1;
  varint payload declared;
  List.iter (fun addr -> varint payload ((addr lsl 2) lor 1)) addrs;
  frame ~tag:1 (Buffer.contents payload)

(* One raw round trip against a daemon or gateway at [addr]. *)
let exchange addr frame =
  match Transport.connect (Transport.parse addr) with
  | Error e -> Error e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Transport.write_all fd frame;
        Protocol.read_response fd)

let is_retired_method = function
  | Dse_error.Constraint_violation { message = "method retired; use arena"; _ } -> true
  | _ -> false

(* Submits with each retired method byte (0-2: the deleted boxed
   streaming, dfs and bcat kernels) to [addr]; each must come back as
   the typed retirement error, exit 2 at the client. *)
let expect_retired_methods_rejected addr =
  List.iter
    (fun method_byte ->
      match exchange addr (submit ~method_byte ~declared:3 [ 1; 2; 1 ]) with
      | Ok (Protocol.Server_error e) when is_retired_method e ->
        Alcotest.(check int) "exit code 2" 2 (Dse_error.exit_code e)
      | Ok (Protocol.Server_error e) -> Alcotest.failf "wrong error: %s" (Dse_error.to_string e)
      | Ok _ -> Alcotest.failf "retired method %d answered" method_byte
      | Error e -> Alcotest.failf "transport: %s" (Dse_error.to_string e))
    [ 0; 1; 2 ]
