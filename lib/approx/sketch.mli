(** One-pass streaming trace sketches.

    Everything here is O(kilobytes) no matter how long the trace is:
    the profile of a 10^9-reference stream costs the same memory as a
    10^3-reference one, which is what lets approximate mode analyse
    traces the exact kernels (O(N') at best) cannot hold. A sketch is
    fed one access at a time — from {!Trace_io.scan}, a synthetic
    generator, or the daemon's wire decoder — and finalized into a
    serialisable {!profile} consumed by {!Che} / {!Approx_dse}. *)

(** HyperLogLog distinct counting over [Bigarray] int8 registers.
    [2^bits] registers (default 14: 16 KiB, ~0.8% standard error), with
    the linear-counting small-range correction. Exposed separately
    because its merge (register-wise max) is exactly the sketch of the
    stream union — associative and commutative, property-tested as
    such. *)
module Hll : sig
  type t

  val create : ?bits:int -> ?salt:int64 -> unit -> t

  val add : t -> int -> unit

  val estimate : t -> float

  (** Theoretical relative standard error, [1.04 / sqrt(2^bits)]. *)
  val rel_error : t -> float

  (** [merge a b] is the sketch of the union of the two streams.
      Raises [Invalid_argument] on incompatible [bits]/[salt]. *)
  val merge : t -> t -> t

  (** Structural register equality — the merge-law test oracle. *)
  val equal : t -> t -> bool
end

(** The distinct counter the sketches actually use: exact (a bounded
    hash set) up to [limit] values, {!Hll} beyond. Embedded working
    sets are routinely tiny — PowerStone instruction traces have
    [N' < 100] — and there an HLL register collision costs percents
    while exactness costs a bounded few hundred KiB. [rel_error] is 0
    while the counter is still exact. *)
module Distinct : sig
  type t

  val create : ?bits:int -> ?salt:int64 -> ?limit:int -> unit -> t

  val add : t -> int -> unit

  (** [exact t] — has the counter not yet overflowed into HLL mode? *)
  val exact : t -> bool

  val estimate : t -> float

  val rel_error : t -> float
end

(** One heavy hitter: a Space-Saving counter. The true count lies in
    [[count - overcount, count]]; for the genuinely hot head of a
    power-law stream [overcount] is 0 and the count exact. *)
type heavy = { addr : int; count : int; overcount : int }

(** One rung of the reuse-probe ladder: at a fully-associative capacity
    of [capacity] lines, the observed warm miss rate was [rate]
    (fraction of warm accesses), with 1-sigma uncertainty [rate_err].
    Rungs from 1 to 8192 lines (unit steps through the associativity
    range, then half-octaves) are measured at full rate — exact
    counts; beyond that a 1/256 spatial sample extends the ladder to
    ~2M lines, SHARDS-style. *)
type probe_point = { capacity : int; rate : float; rate_err : float }

(** The finalized profile: everything the Che/Fagin estimator needs,
    and nothing the trace's length can inflate. *)
type profile = {
  n : int;  (** references seen *)
  distinct : float;  (** estimated N' — exact while the working set is small *)
  distinct_rel_err : float;  (** 0 while [distinct] is exact *)
  max_addr : int;
  transitions : int;
      (** adjacent address changes — [transitions - N'] is *exactly* the
          depth-1 direct-mapped warm miss count (the paper's max-misses
          budget calibrator), so only N' is approximate in it *)
  heavy : heavy array;  (** count-descending *)
  probes : probe_point array;  (** capacity-ascending *)
  fingerprint : int64;
      (** identical to {!Trace.fingerprint} of the same stream — approx
          jobs land on the same cache identity as exact ones *)
}

(** The combined streaming sketch (scalar pass + HLL + Space-Saving
    top-K + two reuse probes). *)
type t

(** [create ?top_k ()] — [top_k] (default 1024) heavy-hitter slots. *)
val create : ?top_k:int -> unit -> t

(** Feed one access. Kinds are ignored (the analytical model is a
    function of addresses only), accepted so the sketch plugs straight
    into {!Trace_io.scan}. Raises [Invalid_argument] on a negative
    address. *)
val add : t -> addr:int -> kind:Trace.kind -> unit

(** [feed t] is [add t] shaped as a {!Trace_io.scan} sink. *)
val feed : t -> addr:int -> kind:Trace.kind -> unit

val finalize : t -> profile

(** [of_trace ?top_k trace] sketches a materialised trace (the
    validation path: small enough for exact, sketched for comparison). *)
val of_trace : ?top_k:int -> Trace.t -> profile

(** The HLL cardinality estimate alone, fed one address at a time —
    the [dse stats] [distinct_addrs_approx] field: [distinct_estimate]
    after [distinct_add] of every address (0 for none). *)
type distinct

val distinct_create : unit -> distinct

val distinct_add : distinct -> int -> unit

val distinct_estimate : distinct -> float

(** Approximate resident size of the sketch state in bytes — the number
    behind the [`Sketch] admission model and the O(kilobytes) claims. *)
val state_bytes : t -> int

(** Bits needed for the largest address seen; at least 1 (the approx
    counterpart of [Trace.address_bits], bounding the table depth). *)
val address_bits : profile -> int
