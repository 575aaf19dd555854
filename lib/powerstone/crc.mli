(** PowerStone [crc]: CRC-32 checksum — the 256-entry table is built by
    the kernel itself, then a 4096-byte buffer is digested through it. *)

(** [make ~scale] builds a scaled variant: input sizes (and the trace
    length) grow roughly linearly with [scale]. [make ~scale:1] is
    the entry {!Registry.all} lists. Raises [Invalid_argument] on
    [scale < 1]. *)
val make : scale:int -> Workload.t
