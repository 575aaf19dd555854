(** PowerStone [adpcm]: IMA ADPCM encoder — 4-bit codes from 16-bit
    samples using the standard 89-entry step-size table. *)

(** [make ~scale] builds a scaled variant: input sizes (and the trace
    length) grow roughly linearly with [scale]. [make ~scale:1] is
    the entry {!Registry.all} lists. Raises [Invalid_argument] on
    [scale < 1]. *)
val make : scale:int -> Workload.t
