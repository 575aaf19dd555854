(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), byte-at-a-time.

    Seals every framed binary format (see {!Wire}): the CRC footer of a
    trace file, a protocol frame or a WAL record covers every preceding
    byte, so any single-byte corruption or truncation is detected
    deterministically. The running state is an [int] holding a 32-bit
    value. *)

(** Initial running state. *)
val init : int

(** [finalize crc] is the 32-bit digest of the bytes folded so far. *)
val finalize : int -> int

(** [update_sub crc b off len] folds in [b.[off] .. b.[off + len - 1]]
    in place: the range is not copied. *)
val update_sub : int -> Bytes.t -> int -> int -> int

(** [digest_string s] is the digest of a whole string. *)
val digest_string : string -> int
