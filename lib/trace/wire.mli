(** The one codec behind the framed binary formats: trace files
    (["DSEB"], {!Trace_io}), protocol frames (["DSRV"], [Protocol]) and
    WAL records (["DSEW"], [Wal]). Each is one envelope,

    {v magic (4) | version (1) | [tag (1)] | length (LEB128) | payload | CRC-32 (4, LE) v}

    with the CRC over every preceding byte. In payloads, integers are
    non-negative LEB128 varints, 64-bit fields 8 bytes little-endian,
    and a trace record is the varint [(addr lsl 2) lor kind_tag] (0
    fetch, 1 read, 2 write; 3 is invalid).

    Decoding raises nothing but {!Malformed}, and checks every declared
    count and length against the bytes that can back it before it
    allocates for it. *)

(** [Malformed (offset, message)]: damage at [offset] bytes from the
    start of the reader. *)
exception Malformed of int * string

(** Largest payload {!length} accepts (256 MiB). *)
val max_payload : int

(** {2 Writing} *)

type writer

(** [writer n] is an empty growable writer with room for [n] bytes. *)
val writer : int -> writer

(** Bytes written and not yet {!flush}ed. *)
val written : writer -> int

(** Bytes in the LEB128 encoding of a non-negative [int]. *)
val varint_size : int -> int

val put_byte : writer -> int -> unit

(** Raises [Invalid_argument] on a negative value. *)
val put_varint : writer -> int -> unit

(** A varint length, then the bytes. *)
val put_string : writer -> string -> unit

(** [put_list w put xs]: the length of [xs] as a varint, then [put w]
    of each item. *)
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

val put_i64 : writer -> int64 -> unit

val put_record : writer -> addr:int -> kind:Trace.kind -> unit

(** [put_header w ?tag ~magic ~version n]: the envelope up to and
    including the length field [n]. *)
val put_header : writer -> ?tag:int -> magic:string -> version:int -> int -> unit

(** [flush w output] hands the unflushed bytes to [output buf off len]
    and empties [w], so a frame of any size streams through a fixed
    buffer. *)
val flush : writer -> (Bytes.t -> int -> int -> unit) -> unit

(** The CRC footer over every byte written, flushed or not. *)
val put_footer : writer -> unit

(** [framed ?tag ~magic ~version size encode] builds the frame of the
    payload [encode] writes in one buffer with room for a [size]-byte
    payload (it grows if [encode] writes more), the header written in
    place in front of the payload: the buffer, and the frame's offset
    and length in it. *)
val framed :
  ?tag:int -> magic:string -> version:int -> int -> (writer -> unit) -> Bytes.t * int * int

(** {2 Reading} *)

type reader

(** [of_string ~eof ?pos s] reads [s] from [pos]; running out is
    [Malformed (_, eof)]. *)
val of_string : eof:string -> ?pos:int -> string -> reader

(** [of_input ?size ~eof fill] reads a stream through [fill buf off len]
    (0 at its end) holding [size] bytes, if known. *)
val of_input : ?size:int -> eof:string -> (Bytes.t -> int -> int -> int) -> reader

val offset : reader -> int

(** Bytes left in the input; about [max_int] when the size is unknown. *)
val remaining : reader -> int

(** No byte left (on a stream, waits for one or for the end). *)
val at_end : reader -> bool

val byte : reader -> int

(** Rejects a varint wider than 63 bits or negative, at its start. *)
val varint : reader -> int

val i64 : reader -> int64

(** [fits ?reserve r n]: [n] items of at least one byte fit in the bytes
    remaining less [reserve] — the guard on every declared count. *)
val fits : ?reserve:int -> reader -> int -> bool

(** [check_count r n what] rejects an [n] that does not {!fits} as
    ["declared <what> exceeds the payload"]. *)
val check_count : reader -> int -> string -> unit

(** A varint count, {!check_count}ed. *)
val count : reader -> string -> int

(** [list r what get] reads a {!count}ed list of [get r] items. *)
val list : reader -> string -> (reader -> 'a) -> 'a list

(** A {!count}ed length, then the bytes. *)
val string : reader -> string

(** [sub r n] consumes the next [n] bytes as a reader of their own
    (offsets from 0, running out is ["unexpected end of payload"]). It
    copies nothing from a string. From a stream it reads into a buffer
    that starts at 56 KiB and, each time it fills, grows to [n] or to
    32 times the bytes received, whichever is smaller. *)
val sub : reader -> int -> reader

(** Expects the bytes of the magic; a mismatch is ["bad magic"]. *)
val magic : reader -> string -> unit

(** [version r ~name v] expects the byte [v]; another byte [b] is
    ["unsupported <name> version <b>"]. *)
val version : reader -> name:string -> int -> unit

(** A payload length, at most {!max_payload}. *)
val length : reader -> int

(** Reads the footer and checks it against every byte consumed before. *)
val footer : reader -> unit

(** [finish r what] expects the end: ["trailing bytes after the <what>"]. *)
val finish : reader -> string -> unit

(** [records ?skip r n sink] decodes [n] trace records. Kind tag 3 is
    [Malformed] unless [skip] (given its offset) returns true to drop it. *)
val records :
  ?skip:(int -> bool) -> reader -> int -> (addr:int -> kind:Trace.kind -> unit) -> unit
