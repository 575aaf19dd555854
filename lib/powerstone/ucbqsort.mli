(** PowerStone [ucbqsort]: iterative quicksort (explicit stack,
    middle-element pivot, insertion sort below a cutoff) over 1024
    keys. *)

(** [make ~scale] builds a scaled variant: input sizes (and the trace
    length) grow roughly linearly with [scale]. [make ~scale:1] is
    the entry {!Registry.all} lists. Raises [Invalid_argument] on
    [scale < 1]. *)
val make : scale:int -> Workload.t
