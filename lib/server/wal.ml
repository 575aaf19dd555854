(* Per-record framing: the [Wire] envelope, one frame per record so a
   torn write damages at most that record:

     "DSEW" | version (1 byte) | payload length (LEB128) | payload
            | CRC-32 (4 bytes LE, over every preceding record byte)

   Payload layout: the cache key and the stats (their [Result_cache]
   wire layouts) | level count | per level: count | values... *)

let magic = "DSEW"

let version = 1

(* -- encoding -- *)

(* A record is built in one exactly-sized [Bytes]: the key and stats go
   to a small scratch writer, a sizing pass covers the histogram
   varints, then the frame is written and sealed in place. Records run
   to several KB (one varint per histogram bucket) and compaction
   re-encodes every live entry at once, so each copy of a record is a
   major-heap allocation worth avoiding. *)

let iter_histogram_varints f histograms =
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
    (* the key and stats take well under 64 bytes *)
    let size = ref 64 in
    iter_histogram_varints (fun v -> size := !size + Wire.varint_size v) histograms;
    let bytes, off, len =
      Wire.framed ~magic ~version !size (fun w ->
          Result_cache.write_key w key;
          Result_cache.write_stats w stats;
          iter_histogram_varints (Wire.put_varint w) histograms)
    in
    Some (Bytes.sub_string bytes off len)

(* -- replay -- *)

(* The end-of-data message of a record reader. A record that runs past
   the end of the log is either a torn tail (a crash mid-append) or
   length-field damage, told apart by whether another magic follows;
   every other [Wire.Malformed] is damage inside the record, skipped by
   resyncing on the next magic. *)
let torn = "torn record"

let rec find_magic data pos =
  let n = String.length magic in
  let rec matches k = k = n || (data.[pos + k] = magic.[k] && matches (k + 1)) in
  if pos + n > String.length data then None
  else if matches 0 then Some pos
  else find_magic data (pos + 1)

(* Parse the record whose magic starts at [pos]; returns the decoded
   entry and the position just past its CRC footer. The CRC is checked
   before the payload is decoded. *)
let parse_record data pos =
  let r = Wire.of_string ~eof:torn ~pos data in
  Wire.magic r magic;
  Wire.version r ~name:"WAL" version;
  let payload_len = Wire.length r in
  if not (Wire.fits ~reserve:4 r payload_len) then raise (Wire.Malformed (Wire.offset r, torn));
  let c = Wire.sub r payload_len in
  Wire.footer r;
  let key = Result_cache.read_key c in
  let stats = Result_cache.read_stats c in
  (* each histogram contributes at least one byte, so a declared count
     beyond the payload is damage the CRC happened to miss *)
  let histograms =
    Array.init (Wire.count c "level count") (fun _ ->
        Array.init (Wire.count c "bucket count") (fun _ -> Wire.varint c))
  in
  Wire.finish c "record";
  ((key, Result_cache.Exact { stats; histograms }), pos + Wire.offset r)

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
        | entry, next ->
          entries := entry :: !entries;
          incr intact;
          scan next
        | exception Wire.Malformed (_, message) when message == torn -> (
          (* torn tail only if no later magic; otherwise the length
             field was damaged mid-file *)
          match find_magic data (start + String.length magic) with
          | Some next ->
            incr damaged;
            scan next
          | None -> truncated := true)
        | exception Wire.Malformed _ ->
          incr damaged;
          scan (start + String.length magic))
  in
  scan 0;
  { entries = List.rev !entries; intact = !intact; damaged = !damaged; truncated = !truncated }

(* One record as a standalone string — the Replicate verb's payload
   unit. Accepts exactly one whole well-formed record; anything else
   (damage, trailing bytes, a torn prefix) is [None], so a replication
   receiver can never be corrupted by a bad peer. *)
let decode_record data =
  match parse_record data 0 with
  | (key, entry), next when next = String.length data -> Some (key, entry)
  | _ -> None
  | exception Wire.Malformed _ -> None

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
