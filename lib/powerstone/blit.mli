(** PowerStone [blit]: bit-aligned block transfer of a 64-row bitmap into
    a wider destination bitmap at a 5-bit offset, with carry propagation
    between words. *)

(** [make ~scale] builds a scaled variant: input sizes (and the trace
    length) grow roughly linearly with [scale]. [make ~scale:1] is
    the entry {!Registry.all} lists. Raises [Invalid_argument] on
    [scale < 1]. *)
val make : scale:int -> Workload.t
