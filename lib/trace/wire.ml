exception Malformed of int * string

(* A 10M-reference trace encodes to ~50 MB, so this is generous without
   being unbounded. *)
let max_payload = 256 * 1024 * 1024

(* -- writing: [crc] covers the bytes already handed on by [flush] -- *)

type writer = { mutable bytes : Bytes.t; mutable pos : int; mutable crc : int }

let writer capacity = { bytes = Bytes.create (max 1 capacity); pos = 0; crc = Crc32.init }

let written w = w.pos

let ensure w n =
  if w.pos + n > Bytes.length w.bytes then begin
    let bigger = Bytes.create (max (w.pos + n) (2 * Bytes.length w.bytes)) in
    Bytes.blit w.bytes 0 bigger 0 w.pos;
    w.bytes <- bigger
  end

let put_byte w b =
  ensure w 1;
  Bytes.set_uint8 w.bytes w.pos b;
  w.pos <- w.pos + 1

let rec put_varint_slow w v =
  if v < 0 then invalid_arg "Wire: negative varint"
  else if v < 0x80 then put_byte w v
  else begin
    put_byte w (v land 0x7F lor 0x80);
    put_varint_slow w (v lsr 7)
  end

(* A non-negative int is at most 9 varint bytes; with that much room the
   bytes go straight into the buffer. Near the end (an exactly sized
   [framed] buffer) the byte-at-a-time form keeps [ensure] from growing
   it. *)
let put_varint w v =
  if v >= 0 && w.pos + 9 <= Bytes.length w.bytes then begin
    let b = w.bytes and pos = ref w.pos and v = ref v in
    while !v >= 0x80 do
      Bytes.unsafe_set b !pos (Char.unsafe_chr (!v land 0x7F lor 0x80));
      incr pos;
      v := !v lsr 7
    done;
    Bytes.unsafe_set b !pos (Char.unsafe_chr !v);
    w.pos <- !pos + 1
  end
  else put_varint_slow w v

let rec varint_size v =
  if v < 0 then invalid_arg "Wire: negative varint"
  else if v < 0x80 then 1
  else 1 + varint_size (v lsr 7)

let put_sub w b off len =
  ensure w len;
  Bytes.blit b off w.bytes w.pos len;
  w.pos <- w.pos + len

let put_string w s =
  put_varint w (String.length s);
  put_sub w (Bytes.unsafe_of_string s) 0 (String.length s)

let put_list w put xs =
  put_varint w (List.length xs);
  List.iter (put w) xs

let put_i64 w v =
  ensure w 8;
  Bytes.set_int64_le w.bytes w.pos v;
  w.pos <- w.pos + 8

let put_record w ~addr ~kind =
  let tag = match kind with Trace.Fetch -> 0 | Trace.Read -> 1 | Trace.Write -> 2 in
  put_varint w ((addr lsl 2) lor tag)

let put_header w ?tag ~magic ~version n =
  put_sub w (Bytes.unsafe_of_string magic) 0 (String.length magic);
  put_byte w version;
  Option.iter (put_byte w) tag;
  put_varint w n

let flush w output =
  w.crc <- Crc32.update_sub w.crc w.bytes 0 w.pos;
  output w.bytes 0 w.pos;
  w.pos <- 0

let put_footer w =
  let crc = Crc32.finalize (Crc32.update_sub w.crc w.bytes 0 w.pos) in
  for i = 0 to 3 do
    put_byte w ((crc lsr (8 * i)) land 0xFF)
  done

(* The payload goes in after room for the widest header (a 9-byte
   length), then the header is written in place just in front of it: a
   frame of unknown payload size is built in one buffer and never
   copied. *)
let framed ?tag ~magic ~version size encode =
  let head n = String.length magic + 1 + (if tag = None then 0 else 1) + varint_size n in
  let room = head max_int in
  let w = writer (room + size + 4) in
  w.pos <- room;
  encode w;
  let stop = w.pos in
  let n = stop - room in
  let start = room - head n in
  w.pos <- start;
  put_header w ?tag ~magic ~version n;
  w.pos <- stop;
  let crc = Crc32.finalize (Crc32.update_sub Crc32.init w.bytes start (stop - start)) in
  for i = 0 to 3 do
    put_byte w ((crc lsr (8 * i)) land 0xFF)
  done;
  (w.bytes, start, w.pos - start)

(* -- reading --

   A reader is a window [buf.[pos .. len - 1]] onto its input, at input
   offset [base + pos]; a stream refills it through [fill]. [crc] covers
   the consumed bytes before [buf.[mark]], so a string is digested in
   place and a stream once per refill. *)

type reader = {
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable base : int;
  limit : int;
  fill : (Bytes.t -> int -> int -> int) option;
  eof : string;
  mutable crc : int;
  mutable mark : int;
}

let of_string ~eof ?(pos = 0) s =
  let len = String.length s in
  { buf = Bytes.unsafe_of_string s; pos; len; base = -pos; limit = len - pos; fill = None; eof;
    crc = Crc32.init; mark = pos }

let of_input ?(size = max_int) ~eof fill =
  { buf = Bytes.create 1024; pos = 0; len = 0; base = 0; limit = size; fill = Some fill; eof;
    crc = Crc32.init; mark = 0 }

let offset r = r.base + r.pos

let remaining r = r.limit - offset r

let fold_crc r =
  r.crc <- Crc32.update_sub r.crc r.buf r.mark (r.pos - r.mark);
  r.mark <- r.pos

(* Only called on a drained window; false at the end of the input. *)
let refill r =
  match r.fill with
  | None -> false
  | Some fill ->
    fold_crc r;
    r.base <- r.base + r.len;
    r.pos <- 0;
    r.mark <- 0;
    r.len <- fill r.buf 0 (Bytes.length r.buf);
    r.len > 0

let rec byte_or r eof =
  if r.pos < r.len then begin
    r.pos <- r.pos + 1;
    Bytes.get_uint8 r.buf (r.pos - 1)
  end
  else if refill r then byte_or r eof
  else raise (Malformed (offset r, eof))

let byte r = byte_or r r.eof

let at_end r = r.pos >= r.len && not (refill r)

(* A varint cut short is [Malformed] at an offset, never a raw end of
   input; an overwide one (more than 63 value bits) is rejected before
   it can wrap into a negative value. *)
let rec varint_from r start shift acc =
  if shift > 56 then raise (Malformed (start, "varint wider than 63 bits"));
  let b = byte r in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if acc < 0 then raise (Malformed (start, "varint overflows the address space"))
  else if b land 0x80 = 0 then acc
  else varint_from r start (shift + 7) acc

(* [varint_from] without the refill check, for a varint whose 9
   possible bytes are all in the window; same errors, same [pos]. *)
let rec varint_in r start shift acc =
  if shift > 56 then raise (Malformed (start, "varint wider than 63 bits"));
  let b = Bytes.get_uint8 r.buf r.pos in
  r.pos <- r.pos + 1;
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if acc < 0 then raise (Malformed (start, "varint overflows the address space"))
  else if b land 0x80 = 0 then acc
  else varint_in r start (shift + 7) acc

let varint r =
  if r.len - r.pos >= 9 then varint_in r (offset r) 0 0 else varint_from r (offset r) 0 0

let fits ?(reserve = 0) r n = n <= remaining r - reserve

let check_count r n what =
  if not (fits r n) then
    raise (Malformed (offset r, Printf.sprintf "declared %s exceeds the payload" what))

let count r what =
  let n = varint r in
  check_count r n what;
  n

let sub r n =
  let eof = "unexpected end of payload" in
  match r.fill with
  | None ->
    if n > r.len - r.pos then raise (Malformed (r.base + r.len, r.eof));
    r.pos <- r.pos + n;
    { r with len = r.pos; pos = r.pos - n; base = n - r.pos; limit = n; eof; crc = Crc32.init;
      mark = r.pos - n }
  | Some fill ->
    (* read straight into a buffer sized from the declared length, but
       never more than 32 times the bytes that actually arrived: one
       allocation for a payload up to 56 KiB, two up to 1.75 MiB, and a
       frame that declares 256 MiB and then stops costs 56 KiB *)
    fold_crc r;
    let buffered = min n (r.len - r.pos) in
    let out = ref (Bytes.create (min n (56 * 1024))) in
    Bytes.blit r.buf r.pos !out 0 buffered;
    r.pos <- r.pos + buffered;
    r.mark <- r.pos;
    let got = ref buffered in
    while !got < n do
      if !got = Bytes.length !out then begin
        let bigger = Bytes.create (min n (32 * !got)) in
        Bytes.blit !out 0 bigger 0 !got;
        out := bigger
      end;
      match fill !out !got (Bytes.length !out - !got) with
      | 0 -> raise (Malformed (offset r + !got - buffered, r.eof))
      | k -> got := !got + k
    done;
    r.base <- r.base + n - buffered;
    r.crc <- Crc32.update_sub r.crc !out 0 n;
    of_string ~eof (Bytes.unsafe_to_string !out)

let list r what get = List.init (count r what) (fun _ -> get r)

let string r =
  let s = sub r (count r "string length") in
  Bytes.sub_string s.buf s.pos s.limit

let i64 r =
  let s = sub r 8 in
  Bytes.get_int64_le s.buf s.pos

let magic r m =
  String.iter
    (fun c -> if byte r <> Char.code c then raise (Malformed (offset r - 1, "bad magic")))
    m

let version r ~name v =
  let b = byte r in
  if b <> v then
    raise (Malformed (offset r - 1, Printf.sprintf "unsupported %s version %d" name b))

let length r =
  let n = varint r in
  if n > max_payload then
    raise
      (Malformed
         (offset r, Printf.sprintf "payload of %d bytes exceeds the %d limit" n max_payload));
  n

let footer r =
  fold_crc r;
  let computed = Crc32.finalize r.crc in
  let at = offset r in
  let stored = ref 0 in
  for i = 0 to 3 do
    stored := !stored lor (byte_or r "truncated CRC footer" lsl (8 * i))
  done;
  if !stored <> computed then
    raise
      (Malformed (at, Printf.sprintf "CRC mismatch (stored %08x, computed %08x)" !stored computed))

let finish r what =
  if not (at_end r) then raise (Malformed (offset r, "trailing bytes after the " ^ what))

let records ?(skip = fun _ -> false) r n sink =
  for _ = 1 to n do
    let at = offset r in
    let v = varint r in
    match v land 3 with
    | 0 -> sink ~addr:(v lsr 2) ~kind:Trace.Fetch
    | 1 -> sink ~addr:(v lsr 2) ~kind:Trace.Read
    | 2 -> sink ~addr:(v lsr 2) ~kind:Trace.Write
    | _ -> if not (skip at) then raise (Malformed (at, "bad kind tag 3"))
  done
