(** Content-addressed, LRU-bounded result cache for the serving layer.

    The analytical method's core economy (paper Figure 1(b)) is that one
    histogram computation answers {e every} subsequent budget query: the
    per-level conflict-cardinality histograms are a complete summary of
    the design space. The cache therefore stores exactly that — the
    histograms plus the calibrating {!Stats.t} — keyed by the trace's
    content ({!Trace.fingerprint}) together with the method, shard
    count, and requested level bound, so a repeated submission (or a
    K-only re-query of a solved trace) is answered without touching the
    kernel at all, via {!Analytical_dse.of_histograms} /
    {!Optimizer.of_histograms}.

    The cache is bounded: storing past [capacity] entries evicts the
    least-recently-used one (a long-lived daemon under many distinct
    traces cannot grow without limit), and evictions are counted for
    [dse submit --server-stats]. Eviction is O(entries) — trivial at the
    default capacity of 256 against the kernel run each store follows.

    Single-flight deduplication ({!Inflight}) means concurrent identical
    submissions reach {!store} at most once; a racing duplicate store
    would in any case overwrite with a bit-identical entry. *)

type key = {
  fingerprint : int64;  (** {!Trace.fingerprint} of the submitted trace *)
  method_tag : int;  (** {!Protocol.method_spec_tag}: the histogram kernel, or 4 = approx *)
  domains : int;  (** shard count the job ran with *)
  max_level : int;  (** requested level bound; [-1] encodes "unbounded" *)
}

(** An exact entry is the complete design-space summary (histograms +
    calibrating stats). An approx entry is the finalized sketch profile
    — the approximate analogue of the same economy: every budget query
    against it is answered by re-running the O(ms) estimator, and
    because the estimator is deterministic in the profile, a cached
    re-query is bit-identical to the first answer. *)
type entry =
  | Exact of { stats : Stats.t; histograms : int array array }
  | Approx of Sketch.profile

type counters = { hits : int; misses : int; entries : int; evictions : int }

type t

(** Default LRU bound (the CLI's [--cache-entries] default). *)
val default_capacity : int

(** [create ?capacity ()] makes an empty cache holding at most
    [capacity] (default {!default_capacity}, must be >= 1) entries. *)
val create : ?capacity:int -> unit -> t

(** [find t key] counts a hit or a miss; a hit refreshes the entry's
    recency. *)
val find : t -> key -> entry option

(** [store t key entry] inserts (or refreshes) the entry, evicting the
    least-recently-used one first when the cache is full. *)
val store : t -> key -> entry -> unit

(** [mem t key] is a pure peek: no hit/miss counting, no recency touch.
    Anti-entropy probes use it so replication traffic cannot distort
    the counters or LRU order established by serving traffic. *)
val mem : t -> key -> bool

(** [remove t key] drops the entry if present. Not counted as an
    eviction — evictions measure capacity pressure, while removal is
    replica GC dropping keys this node no longer participates in (the
    server surfaces those in its own health counter). *)
val remove : t -> key -> unit

(** [exact_keys t] is the cache-key digest exchanged by anti-entropy:
    the keys of every [Exact] entry, in no particular order. Approx
    entries are omitted — they are neither persisted nor replicated. *)
val exact_keys : t -> key list

(** [snapshot t] is every live entry, least-recently-used first —
    replaying a snapshot through {!store} in order reproduces both the
    contents and the recency order (the WAL compaction format). *)
val snapshot : t -> (key * entry) list

val capacity : t -> int

val counters : t -> counters

(** {2 Wire layouts}

    Keys and stats travel in WAL records ([Wal]) and protocol frames
    ([Protocol]); this is their one layout. *)

(** A key is the fingerprint as 8 LE bytes (a full 64-bit hash, which a
    varint would inflate), then varints of the method tag, the domains
    and [max_level + 1] (so the unbounded [-1] stays non-negative). *)
val write_key : Wire.writer -> key -> unit

val read_key : Wire.reader -> key

(** Stats are the varints [n], [n_unique], [address_bits], [max_misses]. *)
val write_stats : Wire.writer -> Stats.t -> unit

val read_stats : Wire.reader -> Stats.t
