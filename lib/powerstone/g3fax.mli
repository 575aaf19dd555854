(** PowerStone [g3fax]: group-3 fax scanline decoder — a nibble
    prefix-code run-length stream (15 = continuation) is expanded through
    a decode table into pixel scanlines. *)

(** [make ~scale] builds a scaled variant: input sizes (and the trace
    length) grow roughly linearly with [scale]. [make ~scale:1] is
    the entry {!Registry.all} lists. Raises [Invalid_argument] on
    [scale < 1]. *)
val make : scale:int -> Workload.t
