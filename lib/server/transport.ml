(* Address abstraction shared by the daemon, the client, and the
   router: the same DSRV framing runs over a Unix-domain socket (one
   host) or TCP (a fleet). Frame I/O already loops on short reads and
   writes, so the wire format ports to TCP unchanged; what lives here
   is the address grammar, connect timeouts, and the listener socket
   options. *)

type addr = Unix_socket of string | Tcp of { host : string; port : int }

(* "host:port" (or ":port", meaning localhost/any) is TCP; anything
   else is a Unix-socket path. A path can in principle contain a colon,
   but then its suffix is not a valid port number and the string still
   parses as a path, so existing UDS users are unaffected. *)
let parse s =
  let as_path = Unix_socket s in
  match String.rindex_opt s ':' with
  | None -> as_path
  | Some i -> (
    let host = String.sub s 0 i in
    let suffix = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt suffix with
    | Some port when port > 0 && port < 65536 && not (String.contains host '/') ->
      Tcp { host; port }
    | _ -> as_path)

let to_string = function
  | Unix_socket path -> path
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Nagle would hold our single-frame requests for up to 40 ms waiting
   for a delayed ACK; request/response traffic wants it off. Harmless
   no-op on Unix sockets. *)
let tune fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let io_error ~addr err =
  Dse_error.Io_error { file = to_string addr; message = Unix.error_message err }

(* Packet-level chaos: DSE_FAULT net:drop:K / net:delay:K:MS fire here,
   at the lowest byte-I/O layer every frame passes through, so the
   replication and anti-entropy paths can be tested against abrupt
   resets and congested links without real network flakiness. A drop is
   indistinguishable from a peer vanishing mid-frame (ECONNRESET). *)
let chaos op =
  (match Fault.net_delay () with
  | Some ms -> Unix.sleepf (float_of_int ms /. 1000.)
  | None -> ());
  if Fault.net_drop () then raise (Unix.Unix_error (Unix.ECONNRESET, op, "fault injection"))

let read_some fd buf off len =
  chaos "read";
  Unix.read fd buf off len

let write_sub fd bytes off len =
  chaos "write";
  let stop = off + len in
  let off = ref off in
  while !off < stop do
    off := !off + Unix.write fd bytes !off (stop - !off)
  done

let write_all fd bytes = write_sub fd bytes 0 (Bytes.length bytes)

let resolve_host host =
  if host = "" then Unix.inet_addr_loopback
  else
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
      | _ | (exception Not_found) ->
        Dse_error.fail (Dse_error.Io_error { file = host; message = "unknown host" }))

let sockaddr_of = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp { host; port } -> Unix.ADDR_INET (resolve_host host, port)

(* Non-blocking connect bounded by [timeout]: a dead (or partitioned)
   TCP peer otherwise holds the caller for the kernel's SYN-retry
   schedule — minutes, not the sub-second budget a router failover
   needs. Unix-socket connects are local and either succeed or fail
   immediately, so they take the blocking path even under a timeout. *)
let connect_bounded fd sa timeout =
  Unix.set_nonblock fd;
  (match Unix.connect fd sa with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> (
    match Unix.select [] [ fd ] [] timeout with
    | _, _ :: _, _ -> (
      match Unix.getsockopt_error fd with
      | None -> ()
      | Some err -> raise (Unix.Unix_error (err, "connect", "")))
    | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))));
  Unix.clear_nonblock fd

let connect ?timeout addr =
  let domain =
    match addr with Unix_socket _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  tune fd;
  match
    let sa = sockaddr_of addr in
    match (timeout, addr) with
    | Some seconds, Tcp _ -> connect_bounded fd sa seconds
    | _ -> Unix.connect fd sa
  with
  | () -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
    close_noerr fd;
    Error (io_error ~addr err)
  | exception Dse_error.Error e ->
    close_noerr fd;
    Error e

(* A stale Unix-socket file (previous daemon crashed) is unlinked; a
   live one (something accepts connections) is a configuration error. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error (_, _, _) -> false
    in
    close_noerr probe;
    if live then
      Error (Dse_error.Io_error { file = path; message = "socket already in use by a live server" })
    else begin
      (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
      Ok ()
    end
  end
  else Ok ()

let listen addr =
  let claimed =
    match addr with Unix_socket path -> claim_socket_path path | Tcp _ -> Ok ()
  in
  match claimed with
  | Error _ as e -> e
  | Ok () -> (
    let domain =
      match addr with Unix_socket _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match
      let sa =
        match addr with
        | Unix_socket path -> Unix.ADDR_UNIX path
        | Tcp { host; port } ->
          (* restarts must not wait out TIME_WAIT from the previous run *)
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          let inet = if host = "" then Unix.inet_addr_any else resolve_host host in
          Unix.ADDR_INET (inet, port)
      in
      Unix.bind fd sa;
      Unix.listen fd 64
    with
    | () -> Ok fd
    | exception Unix.Unix_error (err, _, _) ->
      close_noerr fd;
      Error (io_error ~addr err)
    | exception Dse_error.Error e ->
      close_noerr fd;
      Error e)

let unlink = function
  | Unix_socket path -> (
    try Unix.unlink path with Unix.Unix_error (_, _, _) | Sys_error _ -> ())
  | Tcp _ -> ()

(* For tests that listen on an ephemeral TCP port (port 0). *)
let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None
  | exception Unix.Unix_error _ -> None
