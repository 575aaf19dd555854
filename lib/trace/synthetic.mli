(** Synthetic trace generators: parameterised address streams with the
    locality archetypes real workloads mix (sequential streaming, loops,
    hot/cold sets, strided array walks). Used by the property tests and
    to populate scaling studies with traces of controlled N and N'. *)

(** [sequential ~start ~length] is [start, start+1, ...]. *)
val sequential : start:int -> length:int -> Trace.t

(** [loop ~base ~body ~iterations] replays the address window
    [base, base+body) [iterations] times — an instruction-fetch-like
    pattern. *)
val loop : base:int -> body:int -> iterations:int -> Trace.t

(** [strided ~base ~stride ~count ~iterations] walks [base, base+stride,
    base+2*stride, ...] repeatedly — a column-major-array pattern that
    provokes conflict misses at depths dividing the stride. *)
val strided : base:int -> stride:int -> count:int -> iterations:int -> Trace.t

(** [hot_cold ~seed ~hot ~cold ~hot_percent ~length] draws each access
    from a small hot set with probability [hot_percent]/100, else from a
    large cold set — a data-cache-like mix. *)
val hot_cold : seed:int -> hot:int -> cold:int -> hot_percent:int -> length:int -> Trace.t

(** [uniform ~seed ~span ~length] draws addresses uniformly from
    [0, span). *)
val uniform : seed:int -> span:int -> length:int -> Trace.t

(** 2^27: the largest span (rank count) {!zipf_sampler} accepts, a
    1 GiB table. *)
val max_span : int

(** [check_span span] raises a typed {!Dse_error.Constraint_violation}
    when [span] exceeds {!max_span}. *)
val check_span : int -> unit

(** [zipf_sampler ~seed ~n ~skew ()] draws ranks in [0, n) with
    P(k) proportional to 1/(k+1)^skew — the power-law popularity of
    web/CDN traffic. O(log n) per draw (inverse CDF, binary search);
    deterministic per seed. Also the client mix generator for the
    router bench: rank selects {e which trace} to submit, so a few
    traces dominate as they would in production.

    The inverse CDF is an O(n) table, 8 B per rank, built before the
    first draw: [n] above {!max_span} is refused with a typed
    {!Dse_error.Constraint_violation} before anything is allocated. *)
val zipf_sampler : seed:int -> n:int -> skew:float -> unit -> int

(** [zipfian ~seed ~span ~skew ~length] draws addresses from [0, span)
    with Zipf popularity, scattered over the span by a multiplicative
    hash so hot addresses are not all neighbours. *)
val zipfian : seed:int -> span:int -> skew:float -> length:int -> Trace.t

(** [iter_power_law ~seed ~span ~skew ?churn ~length sink] streams a
    CDN/web-shaped reference trace to [sink] without materialising it:
    Zipf([skew]) popularity over an address space of [span] words, and
    with probability [churn] (default 0, per reference) the drawn
    object is remapped to a fresh address — stationary popularity shape
    over a drifting working set, the temporal-locality profile of a
    content catalogue that rolls over. Deterministic per seed; O(span)
    generator state (at most {!max_span}, see {!zipf_sampler}) but O(1)
    per emitted reference, so [length] can be 10^8+ when the sink is a
    file writer or a sketch. *)
val iter_power_law :
  seed:int ->
  span:int ->
  skew:float ->
  ?churn:float ->
  length:int ->
  (addr:int -> kind:Trace.kind -> unit) ->
  unit

(** [power_law ~seed ~span ~skew ?churn ~length ()] materialises
    {!iter_power_law}'s stream as a trace, for grids small enough to
    compare against the exact kernels. *)
val power_law :
  seed:int -> span:int -> skew:float -> ?churn:float -> length:int -> unit -> Trace.t
