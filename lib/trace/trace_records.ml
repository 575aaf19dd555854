(* A slice [data.[pos .. pos + len - 1]] of [count] records, already
   checked, with their fingerprint. *)
type t = { data : string; pos : int; len : int; count : int; fingerprint : int64 }

let read r n =
  let data, pos = Wire.string_view r in
  let fp = Trace.fingerprinter () in
  for _ = 1 to n do
    let at = Wire.offset r in
    let v = Wire.varint r in
    if v land 3 = 3 then raise (Wire.Malformed (at, "bad kind tag 3"));
    Trace.fingerprinter_add fp (v lsr 2)
  done;
  let fingerprint = Trace.fingerprinter_finish fp ~len:n in
  let _, stop = Wire.string_view r in
  { data; pos; len = stop - pos; count = n; fingerprint }

let length t = t.count

let fingerprint t = t.fingerprint

let write w t =
  Wire.put_varint w t.count;
  Wire.put_substring w t.data t.pos t.len

let write_size t = Wire.varint_size t.count + t.len

(* The records were checked when [t] was made, so these loops only
   decode. *)
let iter_addrs f t =
  let r = Wire.of_string ~eof:"checked records" ~pos:t.pos t.data in
  for _ = 1 to t.count do
    f (Wire.varint r lsr 2)
  done

let iter_records f t =
  let r = Wire.of_string ~eof:"checked records" ~pos:t.pos t.data in
  for _ = 1 to t.count do
    let v = Wire.varint r in
    let kind = match v land 3 with 0 -> Trace.Fetch | 1 -> Trace.Read | _ -> Trace.Write in
    f ~addr:(v lsr 2) ~kind
  done

let to_trace t =
  let trace = Trace.create ~capacity:(max 1 t.count) () in
  iter_records (Trace.add trace) t;
  trace
