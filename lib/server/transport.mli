(** Transport addresses for the serving stack.

    The DSRV frame format is transport-agnostic (length-prefixed,
    CRC-guarded, and all frame reads/writes loop on short counts), so
    the daemon, client, and router speak the identical protocol over a
    Unix-domain socket or TCP. This module owns the address grammar and
    the socket plumbing both transports share: bounded connects,
    listener setup, and latency-oriented socket options
    ([TCP_NODELAY], [SO_REUSEADDR]). *)

type addr =
  | Unix_socket of string  (** a filesystem socket path *)
  | Tcp of { host : string; port : int }
      (** [host] may be empty: loopback for {!connect}, any-interface
          for {!listen} *)

(** [parse s] reads ["host:port"] (or [":port"]) as {!Tcp} when the
    suffix is a valid port number, and anything else as a
    {!Unix_socket} path — so every pre-TCP socket string keeps its
    meaning. *)
val parse : string -> addr

val to_string : addr -> string

(** [connect ?timeout addr] opens a blocking connected socket with
    [TCP_NODELAY] set. [timeout] bounds a TCP connect (via a
    non-blocking connect + select) so a dead or partitioned peer fails
    in [timeout] seconds instead of the kernel's SYN-retry minutes;
    Unix-socket connects fail immediately by nature and ignore it. *)
val connect : ?timeout:float -> addr -> (Unix.file_descr, Dse_error.t) result

(** [listen addr] binds and listens (backlog 64). For a Unix socket, a
    stale file from a crashed daemon is probed and unlinked while a
    live one is refused; for TCP, [SO_REUSEADDR] is set so restarts do
    not wait out [TIME_WAIT]. *)
val listen : addr -> (Unix.file_descr, Dse_error.t) result

(** [unlink addr] removes a Unix socket file, ignoring errors; no-op
    for TCP. *)
val unlink : addr -> unit

(** [tune fd] applies per-connection options to an accepted or
    connected socket (currently [TCP_NODELAY]); harmless on a Unix
    socket. *)
val tune : Unix.file_descr -> unit

(** [bound_port fd] is the local port of a TCP listener — useful after
    binding port 0 (ephemeral) in tests. [None] for Unix sockets. *)
val bound_port : Unix.file_descr -> int option

(** {2 Chaos-checked byte I/O}

    All DSRV frame traffic funnels through these primitives, which
    consult {!Fault.net_drop} / {!Fault.net_delay} before touching the
    descriptor — so [DSE_FAULT=net:drop:K] and [net:delay:K:MS] inject
    connection resets and link stalls at the exact layer a flaky network
    would. With no fault armed they are plain [Unix.read]/[Unix.write]
    loops. *)

(** [read_some fd buf off len] is [Unix.read] behind the chaos hook;
    returns the (possibly short) count, [0] at end of stream. *)
val read_some : Unix.file_descr -> bytes -> int -> int -> int

(** [write_sub fd b off len] writes [b.[off .. off + len - 1]],
    looping on short writes. *)
val write_sub : Unix.file_descr -> bytes -> int -> int -> unit

(** [write_all fd b] is [write_sub fd b 0 (Bytes.length b)]. *)
val write_all : Unix.file_descr -> bytes -> unit
