type on_error = Fail | Skip | Stop_after of int

type ingest = { trace : Trace.t; skipped : int; errors : Dse_error.t list }

type stream = { refs : int; skipped : int; errors : Dse_error.t list }

type format = [ `Text | `Binary | `Dinero ]

let max_reported_errors = 5

let max_line_length = 4096

(* Tolerated-error accounting shared by every lenient reader. *)
type tally = { mutable skipped : int; mutable noted : Dse_error.t list }

let note tally err =
  tally.skipped <- tally.skipped + 1;
  if tally.skipped <= max_reported_errors then tally.noted <- err :: tally.noted

(* [tolerate mode tally err] decides whether [err] is absorbed (skipped
   and counted) or aborts the read. *)
let tolerate mode tally err =
  match mode with
  | Fail -> Error err
  | Skip ->
    note tally err;
    Ok ()
  | Stop_after n ->
    if tally.skipped >= n then Error err
    else begin
      note tally err;
      Ok ()
    end

(* -- text format -- *)

let write channel trace =
  Trace.iter
    (fun (a : Trace.access) ->
      let letter =
        match a.kind with Trace.Fetch -> 'F' | Trace.Read -> 'R' | Trace.Write -> 'W'
      in
      Printf.fprintf channel "%c 0x%x\n" letter a.addr)
    trace

(* Text parsers feed a sink callback rather than a trace, so the same
   grammar serves both the materialising readers below and the one-pass
   [scan]/[iter] path (where the sink is a sketch, never an array). *)
let parse_line ~file ~line_number line sink =
  let fail message = Error (Dse_error.Parse_error { file; line = line_number; message }) in
  if String.length line > max_line_length then
    fail (Printf.sprintf "line exceeds %d bytes" max_line_length)
  else
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok ()
    else
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ k; a ] -> (
        let kind =
          match k with
          | "F" | "f" -> Ok Trace.Fetch
          | "R" | "r" -> Ok Trace.Read
          | "W" | "w" -> Ok Trace.Write
          | _ -> fail (Printf.sprintf "unknown access kind %S" k)
        in
        match kind with
        | Error _ as e -> e
        | Ok kind -> (
          match int_of_string_opt a with
          | Some v when v >= 0 ->
            sink ~addr:v ~kind;
            Ok ()
          | Some _ -> fail "negative address"
          | None -> fail (Printf.sprintf "bad address %S" a)))
      | _ -> fail "expected '<kind> <address>'"

let scan_lines ~parse ~on_error ~file channel sink =
  let tally = { skipped = 0; noted = [] } in
  let refs = ref 0 in
  let sink ~addr ~kind =
    incr refs;
    sink ~addr ~kind
  in
  let rec loop line_number =
    match input_line channel with
    | exception End_of_file ->
      Ok { refs = !refs; skipped = tally.skipped; errors = List.rev tally.noted }
    | line -> (
      match parse ~file ~line_number line sink with
      | Ok () -> loop (line_number + 1)
      | Error err -> (
        match tolerate on_error tally err with
        | Ok () -> loop (line_number + 1)
        | Error _ as e -> e))
  in
  loop 1

let read_lines ~parse ~on_error ~file channel =
  let trace = Trace.create () in
  match
    scan_lines ~parse ~on_error ~file channel (fun ~addr ~kind -> Trace.add trace ~addr ~kind)
  with
  | Ok s -> Ok { trace; skipped = s.skipped; errors = s.errors }
  | Error _ as e -> e

let read ?(on_error = Fail) ?(file = "<channel>") channel =
  read_lines ~parse:parse_line ~on_error ~file channel

(* -- file-path plumbing -- *)

(* [Sys_error] messages already lead with the file name; strip it so
   [Io_error]'s own file field doesn't print it twice *)
let io_error path message =
  let prefix = path ^ ": " in
  let message =
    if String.starts_with ~prefix message then
      String.sub message (String.length prefix) (String.length message - String.length prefix)
    else message
  in
  Dse_error.Io_error { file = path; message }

let with_in opener path f =
  match opener path with
  | exception Sys_error message -> Error (io_error path message)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try f ic
        with Sys_error message -> Error (io_error path message))

let with_out opener path f =
  match opener path with
  | exception Sys_error message -> Error (io_error path message)
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        try Ok (f oc)
        with Sys_error message -> Error (io_error path message))

let load ?on_error path = with_in open_in path (fun ic -> read ?on_error ~file:path ic)

let save path trace = with_out open_out path (fun oc -> write oc trace)

(* -- binary format --

   v1 (legacy, still readable): "DSET", the length as LEB128, then one
   LEB128 record per access of (addr lsl 2) lor kind_tag.

   v2 (what the writer emits): the [Wire] envelope with magic "DSEB" and
   version 2, whose length field is the record count, and a CRC-32
   footer over every preceding byte. Truncation and bit-rot are detected
   deterministically instead of surfacing as a bogus varint. *)

let magic_v1 = "DSET"

let magic_v2 = "DSEB"

let binary_version = 2

(* Streaming v2 writer: the record count must be declared up front (the
   format leads with it), but the records themselves are produced by a
   callback — a synthetic generator can emit a 10^8-reference file
   without ever holding a trace. Raises [Invalid_argument] if the
   producer emits a different number of records than declared, since the
   file would otherwise be structurally corrupt. *)
let write_binary_stream channel ~length produce =
  if length < 0 then invalid_arg "Trace_io.write_binary_stream: negative length";
  (* flushed every 4 KiB; a record is at most 10 bytes *)
  let w = Wire.writer 4106 in
  Wire.put_header w ~magic:magic_v2 ~version:binary_version length;
  let written = ref 0 in
  let emit ~addr ~kind =
    if addr < 0 then invalid_arg "Trace_io.write_binary_stream: negative address";
    incr written;
    Wire.put_record w ~addr ~kind;
    if Wire.written w >= 4096 then Wire.flush w (output channel)
  in
  produce emit;
  if !written <> length then
    invalid_arg
      (Printf.sprintf "Trace_io.write_binary_stream: declared %d records, produced %d" length
         !written);
  Wire.put_footer w;
  Wire.flush w (output channel)

let write_binary channel trace =
  write_binary_stream channel ~length:(Trace.length trace) (fun emit ->
      Trace.iter_records emit trace)

let scan_binary ~on_error ~file channel sink =
  let size = try Some (in_channel_length channel - pos_in channel) with Sys_error _ -> None in
  let r = Wire.of_input ?size ~eof:"unexpected end of file" (input channel) in
  let refs = ref 0 in
  let tally = { skipped = 0; noted = [] } in
  let drained () = { refs = !refs; skipped = tally.skipped; errors = List.rev tally.noted } in
  let corrupt ~offset message = Dse_error.Corrupt_binary { file; offset; message } in
  (* a bad kind tag is a record-level defect that the lenient modes skip;
     anything else is structural *)
  let skip offset = Result.is_ok (tolerate on_error tally (corrupt ~offset "bad kind tag 3")) in
  let sink ~addr ~kind =
    incr refs;
    sink ~addr ~kind
  in
  let go () =
    let header = String.init 4 (fun _ -> Char.chr (Wire.byte r)) in
    let v2 = header = magic_v2 in
    if v2 then Wire.version r ~name:"binary" binary_version
    else if header <> magic_v1 then raise (Wire.Malformed (0, "bad magic"));
    let length_offset = Wire.offset r in
    let length = Wire.varint r in
    (* each record is at least one byte, so a declared length beyond the
       remaining file size is corruption — caught before any attempt to
       allocate or parse that many records (pipes skip the check) *)
    let footer = if v2 then 4 else 0 in
    if not (Wire.fits ~reserve:footer r length) then
      raise
        (Wire.Malformed
           ( length_offset,
             Printf.sprintf "declared length %d exceeds the %d remaining bytes" length
               (max 0 (Wire.remaining r - footer)) ));
    Wire.records ~skip r length sink;
    if v2 then begin
      Wire.footer r;
      Wire.finish r "CRC footer"
    end;
    Ok (drained ())
  in
  match go () with
  | result -> result
  | exception Wire.Malformed (offset, message) -> (
    (* structural damage: in lenient modes keep what parsed (no resync is
       possible after a broken varint), in [Fail] abort *)
    let err = corrupt ~offset message in
    match tolerate on_error tally err with
    | Ok () -> Ok (drained ())
    | Error _ as e -> e)

let read_binary ?(on_error = Fail) ?(file = "<channel>") channel =
  let trace = Trace.create () in
  match
    scan_binary ~on_error ~file channel (fun ~addr ~kind -> Trace.add trace ~addr ~kind)
  with
  | Ok s -> Ok { trace; skipped = s.skipped; errors = s.errors }
  | Error _ as e -> e

let load_binary ?on_error path =
  with_in open_in_bin path (fun ic -> read_binary ?on_error ~file:path ic)

let save_binary path trace = with_out open_out_bin path (fun oc -> write_binary oc trace)

(* -- Dinero/din format: "<label> <hex-addr>"; labels 0 read, 1 write, 2
   instruction fetch -- *)

let parse_dinero_line ~file ~line_number line sink =
  let fail message = Error (Dse_error.Parse_error { file; line = line_number; message }) in
  if String.length line > max_line_length then
    fail (Printf.sprintf "line exceeds %d bytes" max_line_length)
  else
    let line = String.trim line in
    if line = "" then Ok ()
    else
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ l; a ] -> (
        let kind =
          match l with
          | "0" -> Ok Trace.Read
          | "1" -> Ok Trace.Write
          | "2" -> Ok Trace.Fetch
          | _ -> fail (Printf.sprintf "unknown label %S" l)
        in
        match kind with
        | Error _ as e -> e
        | Ok kind -> (
          match int_of_string_opt ("0x" ^ a) with
          | Some v when v >= 0 ->
            sink ~addr:v ~kind;
            Ok ()
          | Some _ | None -> (
            (* some din files already carry a 0x prefix *)
            match int_of_string_opt a with
            | Some v when v >= 0 ->
              sink ~addr:v ~kind;
              Ok ()
            | Some _ | None -> fail (Printf.sprintf "bad address %S" a))))
      | _ -> fail "expected '<label> <address>'"

let read_dinero ?(on_error = Fail) ?(file = "<channel>") channel =
  read_lines ~parse:parse_dinero_line ~on_error ~file channel

let load_dinero ?on_error path =
  with_in open_in path (fun ic -> read_dinero ?on_error ~file:path ic)

(* -- one-pass streaming -- *)

let scan ?(on_error = Fail) ?(file = "<channel>") ?(format = `Text) channel sink =
  match format with
  | `Text -> scan_lines ~parse:parse_line ~on_error ~file channel sink
  | `Dinero -> scan_lines ~parse:parse_dinero_line ~on_error ~file channel sink
  | `Binary -> scan_binary ~on_error ~file channel sink

let iter ?on_error ?(format = `Text) path sink =
  let opener = match format with `Binary -> open_in_bin | `Text | `Dinero -> open_in in
  with_in opener path (fun ic -> scan ?on_error ~file:path ~format ic sink)

(* -- raising conveniences -- *)

let trace_exn = function Ok i -> i.trace | Error e -> Dse_error.fail e

let load_exn ?on_error path = trace_exn (load ?on_error path)

let load_binary_exn ?on_error path = trace_exn (load_binary ?on_error path)

let load_dinero_exn ?on_error path = trace_exn (load_dinero ?on_error path)
