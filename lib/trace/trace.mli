(** Memory-reference traces.

    A trace is the sequence of word addresses touched by a program run,
    each tagged with an access kind (instruction fetch, data read, data
    write). Addresses are word addresses: the unit the paper indexes
    caches with (line size is fixed at one word, paper section 2.1). *)

type kind = Fetch | Read | Write

type access = { addr : int; kind : kind }

(** Mutable growable trace; append-only. *)
type t

(** [create ()] is an empty trace. [capacity] pre-sizes the buffer. *)
val create : ?capacity:int -> unit -> t

(** [add t ~addr ~kind] appends one access. Raises [Invalid_argument] on a
    negative address. *)
val add : t -> addr:int -> kind:kind -> unit

(** [length t] is the number of accesses recorded so far (the paper's N). *)
val length : t -> int

(** [get t i] is the [i]-th access (0-based). *)
val get : t -> int -> access

(** [addr t i] is the address of the [i]-th access, without allocating. *)
val addr : t -> int -> int

(** [kind t i] is the kind of the [i]-th access. *)
val kind : t -> int -> kind

val iter : (access -> unit) -> t -> unit
val iteri : (int -> access -> unit) -> t -> unit

(** [iter_addrs f t] applies [f] to every address in order without
    materialising access records or an address array — the zero-copy
    input loop of the arena strip builder. *)
val iter_addrs : (int -> unit) -> t -> unit

(** [iter_records f t] calls [f ~addr ~kind] for every access in order,
    the shape of {!add} and of every record sink, without allocating an
    access record per element. *)
val iter_records : (addr:int -> kind:kind -> unit) -> t -> unit
val fold : ('a -> access -> 'a) -> 'a -> t -> 'a

(** [of_list accesses] builds a trace from a list. *)
val of_list : access list -> t

(** [of_addresses ?kind addrs] tags every address with [kind]
    (default [Read]). *)
val of_addresses : ?kind:kind -> int array -> t

val to_list : t -> access list

(** [addresses t] is a fresh array of the addresses in order. *)
val addresses : t -> int array

(** [filter keep t] is a new trace with only the accesses satisfying
    [keep], in order. *)
val filter : (access -> bool) -> t -> t

(** [is_data a] holds for reads and writes; [is_fetch a] for fetches. *)
val is_data : access -> bool

val is_fetch : access -> bool

(** [max_addr t] is the largest address, or 0 for an empty trace. *)
val max_addr : t -> int

(** [address_bits t] is the number of bits needed to represent every
    address in [t]; at least 1. *)
val address_bits : t -> int

(** [append dst src] appends all of [src] to [dst]. *)
val append : t -> t -> unit

(** [fingerprint t] is a 64-bit FNV-1a digest over the address sequence
    and the trace length — the content-addressing key of the [dse serve]
    result cache. Access kinds are excluded: the analytical model is a
    function of addresses only, so traces differing only in kinds share
    their cached histograms by design. *)
val fingerprint : t -> int64

(** Streaming fingerprint: fold addresses one at a time without holding
    a trace. [fingerprint t] is exactly
    [fingerprint_finish (fold fingerprint_add fingerprint_init addrs) ~len],
    so a sketch built from a file stream lands on the same cache key as
    the equivalent materialised trace. *)
val fingerprint_init : int64

val fingerprint_add : int64 -> int -> int64

val fingerprint_finish : int64 -> len:int -> int64

(** The streaming fingerprint as a mutable accumulator, for a sink
    that sees one address at a time: [fingerprinter_finish] after
    [fingerprinter_add] of each address equals the fold above, and an
    add allocates nothing. *)
type fingerprinter

val fingerprinter : unit -> fingerprinter

val fingerprinter_add : fingerprinter -> int -> unit

val fingerprinter_finish : fingerprinter -> len:int -> int64

(** [estimate_bytes ~model ~refs] is a pessimistic upper bound on the
    bytes a job over a [refs]-reference trace costs the daemon.
    Computed from the *declared* reference count of a submission frame,
    before any allocation, so [dse serve] admission control
    ([--memory-budget], [--max-job-refs]) can reject oversized jobs
    while they are still just a varint on the wire.

    [model] selects the kind of job: [`Arena] (the exact kernel's
    one-pass stream: 192 B/ref — the upload's record bytes, the
    interner's unique and hash arenas and the slot state at their
    all-unique worst, with the copies their growth leaves — plus a
    128 KiB floor) or [`Sketch] (the
    one-pass approximate profiler: a fixed 4 MiB regardless of [refs] —
    HyperLogLog registers, the top-K heavy-hitter table and the two
    bucketed-LRU probes are all trace-length-independent, which is what
    lets the daemon admit billion-reference approx jobs under a memory
    budget that would reject them exactly). Raises [Invalid_argument]
    on a negative count. *)
val estimate_bytes : model:[ `Arena | `Sketch ] -> refs:int -> int

val pp_kind : Format.formatter -> kind -> unit
val equal_kind : kind -> kind -> bool
