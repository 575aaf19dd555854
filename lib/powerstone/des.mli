(** PowerStone [des]: a 16-round table-driven Feistel block cipher.

    DESIGN.md substitution note: the original benchmark is DES proper;
    this kernel keeps the DES structure (16 Feistel rounds, 8 S-box
    lookups per round through 512 words of tables, per-round subkeys)
    with synthetic S-box contents and a simplified key schedule, so the
    memory-access pattern — the only thing the cache study consumes — is
    preserved. *)

(** [make ~scale] builds a scaled variant: input sizes (and the trace
    length) grow roughly linearly with [scale]. [make ~scale:1] is
    the entry {!Registry.all} lists. Raises [Invalid_argument] on
    [scale < 1]. *)
val make : scale:int -> Workload.t
