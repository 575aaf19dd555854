(* Per-record framing: one [Result_cache] record per entry, so a torn
   write damages at most that record; see [Result_cache.record_magic]
   for the layout. An exact entry is held by the cache in these very
   bytes, so appending, compacting and replicating copy them as they
   are. *)

(* Approx entries are deliberately not persisted: the record format is
   the exact histogram summary, and an approx profile is cheap to
   recompute from a resubmission (one streaming pass) — so a restarted
   daemon simply answers approx repeats cold. [None] means "nothing to
   write", and both the append path and compaction skip it. *)
let encode_record key : Result_cache.entry -> string option = function
  | Exact { stats; histograms } -> Some (Result_cache.encode key stats histograms)
  | Packed record -> Some record
  | Approx _ -> None

(* One record as a standalone string — the Replicate verb's payload
   unit. Accepts exactly one whole well-formed record; anything else
   (damage, trailing bytes, a torn prefix) is [None], so a replication
   receiver can never be corrupted by a bad peer. *)
let whole data read =
  match read data 0 with
  | result, next when next = String.length data -> Some result
  | _ -> None
  | exception Wire.Malformed _ -> None

let decode_record data =
  whole data (fun data pos ->
      let key, entry, next = Result_cache.decode_record data pos in
      ((key, entry), next))

let check_record data = whole data Result_cache.check_record

(* -- replay -- *)

let magic = Result_cache.record_magic

let rec find_magic data pos =
  let n = String.length magic in
  let rec matches k = k = n || (data.[pos + k] = magic.[k] && matches (k + 1)) in
  if pos + n > String.length data then None
  else if matches 0 then Some pos
  else find_magic data (pos + 1)

let starts_record data pos = find_magic data pos = Some pos

(* A record whose footer ran into the next record's magic: a torn
   record can borrow the bytes it lacks from the magic after it, and
   its CRC can come out right by chance (one in 256 for one borrowed
   byte). Then the record parsed ends just past a magic inside its own
   footer, neither at the end of the log nor at a magic. If a valid
   record starts at that inner magic, the parsed one was torn. *)
let swallowed data next =
  let len = String.length data in
  if next >= len || starts_record data next then None
  else
    List.find_opt
      (fun p ->
        starts_record data p
        &&
        match Result_cache.check_record data p with
        | _ -> true
        | exception Wire.Malformed _ -> false)
      (List.init 4 (fun i -> next - 4 + i))

type replay = {
  entries : (Result_cache.key * Result_cache.entry) list;
  intact : int;
  damaged : int;
  truncated : bool;
}

(* Each record's bytes are kept as they are ([Result_cache.Packed]),
   checked but not decoded. Also returns where a torn tail starts (the
   length of the log when there is none). *)
let replay_string data =
  let len = String.length data in
  let entries = ref [] in
  let intact = ref 0 in
  let damaged = ref 0 in
  let tail = ref None in
  let read start =
    let key, next = Result_cache.check_record data start in
    ((key, Result_cache.Packed (String.sub data start (next - start))), next)
  in
  let rec scan pos =
    if pos < len then
      match find_magic data pos with
      | None ->
        (* trailing bytes with no frame start: damage, not a torn
           record (a torn record keeps its magic) *)
        incr damaged
      | Some start ->
        if start > pos then incr damaged;
        (match read start with
        | entry, next -> (
          match swallowed data next with
          | Some inner ->
            incr damaged;
            scan inner
          | None ->
            entries := entry :: !entries;
            incr intact;
            scan next)
        | exception Wire.Malformed (_, message) when message == Result_cache.record_eof -> (
          (* torn tail only if no later magic; otherwise the length
             field was damaged mid-file *)
          match find_magic data (start + String.length magic) with
          | Some next ->
            incr damaged;
            scan next
          | None -> tail := Some start)
        | exception Wire.Malformed _ ->
          incr damaged;
          scan (start + String.length magic))
  in
  scan 0;
  ( { entries = List.rev !entries; intact = !intact; damaged = !damaged;
      truncated = !tail <> None },
    Option.value !tail ~default:len )

let read_log path scan =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Ok (scan data)
  | exception Sys_error _ when not (Sys.file_exists path) ->
    Ok ({ entries = []; intact = 0; damaged = 0; truncated = false }, 0)
  | exception Sys_error message -> Error (Dse_error.Io_error { file = path; message })
  | exception Unix.Unix_error (err, _, _) ->
    Error (Dse_error.Io_error { file = path; message = Unix.error_message err })

let replay path = Result.map fst (read_log path replay_string)

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

(* The next append must start on a record boundary: a record appended
   after a torn tail would follow bytes that lack their end, and the
   tail could borrow from it (see [swallowed]). *)
let restore path =
  match read_log path replay_string with
  | Error _ as e -> e
  | Ok (replay, tail) ->
    guard ~path (fun () ->
        if replay.truncated then Unix.truncate path tail;
        replay)

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
