(* Per-record framing (one frame per record so a torn write damages at
   most that record):

     "DSEW" | version (1 byte) | payload length (LEB128) | payload
            | CRC-32 (4 bytes LE, over every preceding record byte)

   Payload layout: fingerprint (8 bytes LE) | method_tag | domains |
   max_level + 1 | n | n_unique | address_bits | max_misses
   | level count | per level: count | values...  (all LEB128 varints,
   max_level shifted by one because -1 encodes "unbounded"). *)

let magic = "DSEW"

let version = 1

(* Matches the protocol's frame cap: a record is one cached result, far
   smaller than a submitted trace, so this is purely an allocation
   guard against CRC-colliding garbage lengths. *)
let max_payload = 256 * 1024 * 1024

(* -- encoding -- *)

(* A record is built in one exactly-sized [Bytes]: a sizing pass over
   the payload varints, a writing pass, then the CRC footer. Records run
   to several KB (one varint per histogram bucket) and compaction
   re-encodes every live entry at once, so each copy of a record is a
   major-heap allocation worth avoiding. *)

let varint_size v =
  if v < 0 then invalid_arg "Wal: negative varint";
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

(* Writes [v] at [pos]; returns the position just past it. *)
let rec put_varint b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.chr (v land 0x7F lor 0x80));
    put_varint b (pos + 1) (v lsr 7)
  end

let put_fingerprint b pos fp =
  for i = 0 to 7 do
    Bytes.set b (pos + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical fp (8 * i)) land 0xFF))
  done;
  pos + 8

(* Every payload varint after the fingerprint, in wire order. *)
let iter_payload_varints f (key : Result_cache.key) (stats : Stats.t) histograms =
  f key.Result_cache.method_tag;
  f key.Result_cache.domains;
  f (key.Result_cache.max_level + 1);
  f stats.Stats.n;
  f stats.Stats.n_unique;
  f stats.Stats.address_bits;
  f stats.Stats.max_misses;
  f (Array.length histograms);
  Array.iter
    (fun histogram ->
      f (Array.length histogram);
      Array.iter f histogram)
    histograms

(* Approx entries are deliberately not persisted: the record format is
   the exact histogram summary, and an approx profile is cheap to
   recompute from a resubmission (one streaming pass) — so a restarted
   daemon simply answers approx repeats cold. [None] means "nothing to
   write", and both the append path and compaction skip it. *)
let encode_record (key : Result_cache.key) (entry : Result_cache.entry) =
  match entry with
  | Result_cache.Approx _ -> None
  | Result_cache.Exact { stats; histograms } ->
    let payload_len = ref 8 in
    iter_payload_varints (fun v -> payload_len := !payload_len + varint_size v) key stats histograms;
    let payload_len = !payload_len in
    let header_len = String.length magic + 1 + varint_size payload_len in
    let body_len = header_len + payload_len in
    let b = Bytes.create (body_len + 4) in
    Bytes.blit_string magic 0 b 0 (String.length magic);
    Bytes.set b (String.length magic) (Char.chr version);
    let pos = ref (put_varint b (String.length magic + 1) payload_len) in
    pos := put_fingerprint b !pos key.Result_cache.fingerprint;
    iter_payload_varints (fun v -> pos := put_varint b !pos v) key stats histograms;
    let crc = ref Crc32.init in
    for i = 0 to body_len - 1 do
      crc := Crc32.update_byte !crc (Char.code (Bytes.unsafe_get b i))
    done;
    let crc = Crc32.finalize !crc in
    for i = 0 to 3 do
      Bytes.set b (body_len + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
    done;
    Some (Bytes.unsafe_to_string b)

(* -- replay -- *)

(* Structural damage inside a record: skip it and resync on the next
   magic. *)
exception Bad

(* The record extends past end-of-file: either a torn tail (a crash
   mid-append) or length-field damage; disambiguated by whether another
   magic follows. *)
exception Short

type cursor = { data : string; mutable pos : int }

let cursor_byte c =
  if c.pos >= String.length c.data then raise Short;
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let cursor_varint c =
  let rec loop shift acc =
    if shift > 56 then raise Bad
    else
      let b = cursor_byte c in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if acc < 0 then raise Bad
      else if b land 0x80 = 0 then acc
      else loop (shift + 7) acc
  in
  loop 0 0

let cursor_fingerprint c =
  let fp = ref 0L in
  for i = 0 to 7 do
    fp := Int64.logor !fp (Int64.shift_left (Int64.of_int (cursor_byte c)) (8 * i))
  done;
  !fp

let find_magic data pos =
  let len = String.length data in
  let rec go i =
    if i + String.length magic > len then None
    else if String.sub data i (String.length magic) = magic then Some i
    else go (i + 1)
  in
  go pos

(* Parse the record whose magic starts at [pos]; returns the decoded
   entry and the position just past its CRC footer. *)
let parse_record data pos =
  let c = { data; pos = pos + String.length magic } in
  let v = cursor_byte c in
  if v <> version then raise Bad;
  let payload_len = cursor_varint c in
  if payload_len > max_payload then raise Bad;
  let payload_end = c.pos + payload_len in
  if payload_end + 4 > String.length data then raise Short;
  let stored_crc = ref 0 in
  for i = 0 to 3 do
    stored_crc := !stored_crc lor (Char.code data.[payload_end + i] lsl (8 * i))
  done;
  let computed = Crc32.digest_string (String.sub data pos (payload_end - pos)) in
  if !stored_crc <> computed then raise Bad;
  let fingerprint = cursor_fingerprint c in
  let method_tag = cursor_varint c in
  let domains = cursor_varint c in
  let max_level = cursor_varint c - 1 in
  let n = cursor_varint c in
  let n_unique = cursor_varint c in
  let address_bits = cursor_varint c in
  let max_misses = cursor_varint c in
  let level_count = cursor_varint c in
  (* each histogram contributes at least one byte, so a declared count
     beyond the payload is damage the CRC happened to miss *)
  if level_count > payload_end - c.pos then raise Bad;
  let histograms =
    Array.init level_count (fun _ ->
        let count = cursor_varint c in
        if count > payload_end - c.pos then raise Bad;
        Array.init count (fun _ -> cursor_varint c))
  in
  if c.pos <> payload_end then raise Bad;
  let key = { Result_cache.fingerprint; method_tag; domains; max_level } in
  let entry =
    Result_cache.Exact { stats = { Stats.n; n_unique; address_bits; max_misses }; histograms }
  in
  ((key, entry), payload_end + 4)

type replay = {
  entries : (Result_cache.key * Result_cache.entry) list;
  intact : int;
  damaged : int;
  truncated : bool;
}

let replay_string data =
  let len = String.length data in
  let entries = ref [] in
  let intact = ref 0 in
  let damaged = ref 0 in
  let truncated = ref false in
  let rec scan pos =
    if pos < len then
      match find_magic data pos with
      | None ->
        (* trailing bytes with no frame start: damage, not a torn
           record (a torn record keeps its magic) *)
        incr damaged
      | Some start ->
        if start > pos then incr damaged;
        (match parse_record data start with
        | entry_and_next ->
          let entry, next = entry_and_next in
          entries := entry :: !entries;
          incr intact;
          scan next
        | exception Bad ->
          incr damaged;
          scan (start + String.length magic)
        | exception Short -> (
          (* torn tail only if no later magic; otherwise the length
             field was damaged mid-file *)
          match find_magic data (start + String.length magic) with
          | Some next ->
            incr damaged;
            scan next
          | None -> truncated := true))
  in
  scan 0;
  { entries = List.rev !entries; intact = !intact; damaged = !damaged; truncated = !truncated }

(* One record as a standalone string — the Replicate verb's payload
   unit. Accepts exactly one whole well-formed record; anything else
   (damage, trailing bytes, a torn prefix) is [None], so a replication
   receiver can never be corrupted by a bad peer. *)
let decode_record data =
  if String.length data < String.length magic + 1 then None
  else if String.sub data 0 (String.length magic) <> magic then None
  else
    match parse_record data 0 with
    | (key, entry), next when next = String.length data -> Some (key, entry)
    | _ -> None
    | exception (Bad | Short) -> None

let replay path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Ok (replay_string data)
  | exception Sys_error _ when not (Sys.file_exists path) ->
    Ok { entries = []; intact = 0; damaged = 0; truncated = false }
  | exception Sys_error message -> Error (Dse_error.Io_error { file = path; message })
  | exception Unix.Unix_error (err, _, _) ->
    Error (Dse_error.Io_error { file = path; message = Unix.error_message err })

(* -- appending -- *)

type t = {
  path : string;
  capacity : int;
  compact_factor : int;
  snapshot : unit -> (Result_cache.key * Result_cache.entry) list;
  mutex : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable appended : int;
}

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let guard ~path f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (err, _, _) ->
    Error (Dse_error.Io_error { file = path; message = Unix.error_message err })
  | exception Sys_error message -> Error (Dse_error.Io_error { file = path; message })

let open_append path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644

let open_ ?(compact_factor = 4) ~capacity ~snapshot path =
  if capacity < 1 then invalid_arg "Wal.open_: capacity must be >= 1";
  if compact_factor < 1 then invalid_arg "Wal.open_: compact_factor must be >= 1";
  guard ~path (fun () ->
      let fd = open_append path in
      { path; capacity; compact_factor; snapshot; mutex = Mutex.create (); fd; appended = 0 })

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* The rename above made the compacted log the live one in the
   directory's in-memory state, but the directory entry itself is not
   durable until the directory inode is flushed: a power cut between
   rename and the next incidental directory sync could resurrect the
   pre-compaction log. Filesystems that refuse fsync on a directory fd
   (EINVAL, or EBADF once closed by a racing close) already order the
   rename themselves, so those are safe to ignore. *)
let fsync_parent_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dir_fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close dir_fd with Unix.Unix_error _ -> ())
      (fun () ->
        try Unix.fsync dir_fd with Unix.Unix_error ((Unix.EINVAL | Unix.EBADF), _, _) -> ())

(* Rewrite the log as the live snapshot: temp file, fsync, atomic
   rename, parent-directory fsync — a crash leaves either the old log
   or the new one, durably. *)
let compact_locked t =
  let entries = t.snapshot () in
  let tmp = t.path ^ ".compact" in
  let tmp_fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close tmp_fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun (key, entry) ->
          match encode_record key entry with
          | Some record -> write_all tmp_fd record
          | None -> ())
        entries;
      Unix.fsync tmp_fd);
  Unix.rename tmp t.path;
  fsync_parent_dir t.path;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- open_append t.path;
  t.appended <- 0

let append t key entry =
  match encode_record key entry with
  | None -> Ok () (* approx entries are not persisted *)
  | Some record ->
    with_lock t (fun () ->
        guard ~path:t.path (fun () ->
            write_all t.fd record;
            t.appended <- t.appended + 1;
            if t.appended >= t.compact_factor * t.capacity then compact_locked t))

(* On-demand compaction: replica GC removes entries from the cache, and
   rewriting the log from the post-GC snapshot is what removes them from
   disk — otherwise a decommissioned key range would be resurrected by
   the next replay. *)
let compact t = with_lock t (fun () -> guard ~path:t.path (fun () -> compact_locked t))

let appended_since_compact t = with_lock t (fun () -> t.appended)

let path t = t.path

let close t = with_lock t (fun () -> try Unix.close t.fd with Unix.Unix_error _ -> ())
