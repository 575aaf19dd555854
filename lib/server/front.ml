let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A stalled or hostile peer holds its handler for at most this long per
   blocking read or write. *)
let io_timeout = 30.0

(* How long a refused client should wait: a handler frees up as soon as
   one connection is answered, so the hint only needs to spread the
   retries out. *)
let refusal_retry_after = 0.5

let handler_loop queue ~log handle =
  let rec loop () =
    match Job_queue.pop queue with
    | None -> ()
    | Some fd ->
      (* the front must outlive any one connection *)
      (try handle fd
       with e ->
         log (Printf.sprintf "connection handler: %s" (Printexc.to_string e));
         close_noerr fd);
      loop ()
  in
  loop ()

let run ~listeners ~handlers ~max_pending ~stopping ~tick ?(refused = fun () -> ()) ~log handle
    =
  if handlers < 1 then invalid_arg "Front.run: handlers must be >= 1";
  let queue = Job_queue.create ~max_pending in
  let threads = List.init handlers (fun _ -> Thread.create (handler_loop queue ~log) handle) in
  let accept_from listen_fd =
    match Unix.accept ~cloexec:true listen_fd with
    | fd, _ -> (
      Transport.tune fd;
      match
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout
      with
      | exception Unix.Unix_error _ -> close_noerr fd (* reset before we got to it *)
      | () -> (
        match Job_queue.push queue fd with
        | `Ok -> ()
        | `Full pending ->
          refused ();
          ignore
            (Protocol.write_response fd
               (Protocol.Server_error
                  (Dse_error.Queue_full
                     { pending; max_pending; retry_after = refusal_retry_after })));
          close_noerr fd
        | `Closed -> close_noerr fd))
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNABORTED), _, _) -> ()
    | exception Unix.Unix_error (err, _, _) ->
      log (Printf.sprintf "accept: %s" (Unix.error_message err))
  in
  while not (Atomic.get stopping) do
    (match Unix.select listeners [] [] 0.1 with
    | ready, _, _ -> List.iter accept_from ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    tick ()
  done;
  (* drain: nothing new is accepted, but every connection already in the
     queue is handled before the handlers exit *)
  List.iter close_noerr listeners;
  let pending = Job_queue.length queue in
  if pending > 0 then log (Printf.sprintf "draining %d pending connection(s)" pending);
  Job_queue.close queue;
  List.iter Thread.join threads
