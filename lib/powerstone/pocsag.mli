(** PowerStone [pocsag]: pager-protocol codeword processing — BCH(31,21)
    syndrome computation and parity check over a batch of received
    codewords, a fraction of which carry injected bit errors. *)

(** [make ~scale] builds a scaled variant: input sizes (and the trace
    length) grow roughly linearly with [scale]. [make ~scale:1] is
    the entry {!Registry.all} lists. Raises [Invalid_argument] on
    [scale < 1]. *)
val make : scale:int -> Workload.t
