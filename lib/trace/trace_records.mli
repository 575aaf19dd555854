(** A trace held as its encoded {!Wire} records: one varint
    [(addr lsl 2) lor kind_tag] per reference, the bytes a Submit frame
    carries. About 2.5 bytes per reference where a {!Trace.t} takes 9,
    and a decoder can keep them as a slice of the frame it read, so a
    submission is checked and fingerprinted in one pass and then kept
    as it arrived: re-sent verbatim, or decoded straight into a
    kernel. *)

type t

(** [read r n] consumes [n] records from a reader over a string (a
    frame payload), checking each as {!Wire.records} does, with the
    same [Wire.Malformed] errors. The result refers to the reader's
    string without copying it. Raises [Invalid_argument] on a stream
    reader. *)
val read : Wire.reader -> int -> t

(** The number of references. *)
val length : t -> int

(** {!Trace.fingerprint} of the trace, computed once by {!read}. *)
val fingerprint : t -> int64

(** [write w t]: the record count as a varint, then the records — the
    layout {!read} takes, byte for byte what was read. *)
val write : Wire.writer -> t -> unit

(** [write_size t] is the bytes {!write} puts. *)
val write_size : t -> int

(** [iter_addrs f t] applies [f] to every address in order. *)
val iter_addrs : (int -> unit) -> t -> unit

(** [to_trace t] materialises the trace. *)
val to_trace : t -> Trace.t
