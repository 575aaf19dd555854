(** Content-addressed, LRU-bounded result cache for the serving layer.

    The analytical method's core economy (paper Figure 1(b)) is that one
    histogram computation answers {e every} subsequent budget query: the
    per-level conflict-cardinality histograms are a complete summary of
    the design space. The cache therefore stores exactly that — the
    histograms plus the calibrating {!Stats.t} — keyed by the trace's
    content ({!Trace.fingerprint}) together with the method and the
    requested level bound, so a repeated submission (or a
    K-only re-query of a solved trace) is answered without touching the
    kernel at all, via {!Analytical_dse.of_histograms} /
    {!Optimizer.of_histograms}.

    An exact entry is held as its encoded record ({!Packed}, about
    2.3 KB for a 20K-reference trace where the boxed arrays take
    16 KB), and decoded on a hit. The same bytes are the WAL record,
    the [Replicate] and [Cache_reply] payload and the drain hand-off,
    so none of those encodes or decodes anything.

    The cache is bounded: storing past [capacity] entries evicts the
    least-recently-used one (a long-lived daemon under many distinct
    traces cannot grow without limit), and evictions are counted in
    [dse submit --health]. Eviction is O(entries) — trivial at the
    default capacity of 256 against the kernel run each store follows.

    Single-flight deduplication ({!Inflight}) means concurrent identical
    submissions reach {!store} at most once; a racing duplicate store
    would in any case overwrite with a bit-identical entry. *)

type key = {
  fingerprint : int64;  (** {!Trace.fingerprint} of the submitted trace *)
  method_tag : int;  (** {!Protocol.method_spec_tag}: the histogram kernel, or 4 = approx *)
  domains : int;
      (** always 1 for what the daemon stores and looks up: the field
          is kept in the key and its record layout, but one trace is one
          entry whatever [domains] it was submitted with *)
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
  | Packed of string
      (** an exact entry as its record ({!encode}): the key, stats and
          histograms in one self-framing, checksummed frame. The cache
          hands exact entries out in this form only from {!snapshot}. *)

type counters = { hits : int; misses : int; entries : int; evictions : int }

type t

(** Default LRU bound (the CLI's [--cache-entries] default). *)
val default_capacity : int

(** [create ?capacity ()] makes an empty cache holding at most
    [capacity] (default {!default_capacity}, must be >= 1) entries. *)
val create : ?capacity:int -> unit -> t

(** [find t key] counts a hit or a miss; a hit refreshes the entry's
    recency. An exact entry comes back decoded ([Exact]). *)
val find : t -> key -> entry option

(** [find_packed t key] is {!find} of an exact entry as its record,
    for a caller that ships its bytes; [None] for an approx entry too. *)
val find_packed : t -> key -> string option

(** [store t key entry] inserts (or refreshes) the entry, an [Exact]
    one {!encode}d, evicting the least-recently-used one first when the
    cache is full. A [Packed] entry must be a record of [key] (as
    {!check_record} reads it). *)
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
    the keys of every exact entry, in no particular order. Approx
    entries are omitted — they are neither persisted nor replicated. *)
val exact_keys : t -> key list

(** [snapshot t] is every live entry as held (exact ones [Packed]),
    least-recently-used first — replaying a snapshot through {!store}
    in order reproduces both the contents and the recency order (the
    WAL compaction format). *)
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

(** {2 Records}

    An exact entry's one encoding, a {!Wire} frame:

    {v "DSEW" | version (1) | payload length (LEB128) | payload | CRC-32 (4, LE) v}

    The payload is the key and the stats in the layouts above, then the
    level count and, per level, the bucket count and the buckets. *)

val record_magic : string

(** [encode key stats histograms] is the record of an exact entry. *)
val encode : key -> Stats.t -> int array array -> string

(** [decode record] is the [Exact] entry of a record that came from
    {!encode} or passed {!check_record}. *)
val decode : string -> entry

(** [record_eof] is the [Wire.Malformed] message of a record that runs
    past the end of its input (the payload length does not fit): a
    torn record, or a damaged length field. *)
val record_eof : string

(** [check_record data pos] checks the whole record starting at [pos]
    (frame, CRC and payload) without decoding its histograms, and
    returns its key and the position just past it. Raises
    [Wire.Malformed]. *)
val check_record : string -> int -> key * int

(** [decode_record data pos] is {!check_record} that also decodes the
    entry ([Exact]). *)
val decode_record : string -> int -> key * entry * int
