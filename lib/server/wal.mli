(** Crash-safe write-ahead log for the serving layer's result cache.

    A cached entry is expensive to compute (one full kernel run) and
    cheap to store, so a daemon restart must not discard it. Every
    {!Result_cache.store} is appended here as one self-framing record,
    a {!Wire} frame with magic ["DSEW"] and version 1, so the log
    survives partial writes:

    {v "DSEW" | version (1) | payload length (LEB128) | payload | CRC-32 (4, LE) v}

    A record is the {!Result_cache} record of the entry: the cache key
    and the stats in their {!Result_cache.write_key} /
    {!Result_cache.write_stats} layouts, then the per-level histograms,
    length-prefixed. The cache holds exact entries in these bytes
    ({!Result_cache.Packed}), so an append or a compaction writes them
    as they are.

    {!replay} tolerates real crash damage: a torn tail (a [kill -9]
    mid-append) drops only the unfinished record, and a bit-flipped or
    garbage region is skipped by re-synchronising on the next ["DSEW"]
    magic — every intact record before {e and after} the damage is
    recovered. A torn record whose CRC happens to come out right on
    bytes borrowed from the next record's magic is counted as damage,
    and the next record is kept. Records replay in append order, so
    later writes of the same key win and LRU recency is reproduced.

    Appends are a single [write(2)] on an [O_APPEND] descriptor, so a
    crash can tear at most the final record. When the log has grown past
    [compact_factor * capacity] appended records it is compacted: the
    live snapshot is written to a sibling temp file, fsynced, and
    atomically renamed over the log — a crash during compaction leaves
    either the old or the new file, never a mix. *)

(** [encode_record key entry] is the entry as one self-framing record —
    the unit of both WAL persistence and the cluster's [Replicate] /
    [Cache_reply] payloads, so warm state travels in the same bytes it
    is persisted in. [None] for an {!Result_cache.Approx} entry (not
    persisted, hence not replicated — cheap to recompute). *)
val encode_record : Result_cache.key -> Result_cache.entry -> string option

(** [decode_record data] parses exactly one whole record as produced by
    {!encode_record}. Damage, trailing bytes, or a torn prefix is
    [None] — a replication receiver cannot be corrupted by a bad
    peer. *)
val decode_record : string -> (Result_cache.key * Result_cache.entry) option

(** [check_record data] is [decode_record]'s check without decoding
    the histograms: the key of a whole well-formed record, whose bytes
    [data] can then be stored as they are ({!Result_cache.Packed}). *)
val check_record : string -> Result_cache.key option

type replay = {
  entries : (Result_cache.key * Result_cache.entry) list;  (** in append order *)
  intact : int;  (** records recovered *)
  damaged : int;  (** corrupt regions skipped by magic resync *)
  truncated : bool;  (** a torn final record was dropped *)
}

(** [replay path] scans the log. Entries are {!Result_cache.Packed}
    records, checked but not decoded. A missing file is an empty replay
    (the first run of a daemon), damage is tolerated as documented
    above; only an OS-level open/read failure is an [Error]. *)
val replay : string -> (replay, Dse_error.t) result

(** [restore path] is {!replay} for a daemon's start-up that also cuts
    a torn tail off the file, so the next append starts on a record
    boundary. *)
val restore : string -> (replay, Dse_error.t) result

type t

(** [open_ ?compact_factor ~capacity ~snapshot path] opens (creating if
    absent) the log for appending. [capacity] is the paired cache's
    entry bound and [compact_factor] (default 4) sets the compaction
    trigger: after [compact_factor * capacity] appends the log is
    rewritten from [snapshot ()] (the cache's live entries,
    least-recently-used first). *)
val open_ :
  ?compact_factor:int ->
  capacity:int ->
  snapshot:(unit -> (Result_cache.key * Result_cache.entry) list) ->
  string ->
  (t, Dse_error.t) result

(** [append t key entry] logs one store (and compacts if due). Safe from
    any domain. An {!Result_cache.Approx} entry is a no-op [Ok ()]: the
    record format is the exact histogram summary, and a sketch profile
    is cheap to recompute from a resubmission (one streaming pass), so
    approx results are served warm only within a daemon's lifetime. *)
val append : t -> Result_cache.key -> Result_cache.entry -> (unit, Dse_error.t) result

(** [compact t] rewrites the log from the live snapshot immediately,
    regardless of the append-count trigger. Replica GC calls it after
    dropping entries the node no longer participates in, so a
    decommissioned key range leaves the disk too (a later replay must
    not resurrect it). Safe from any domain. *)
val compact : t -> (unit, Dse_error.t) result

(** [appended_since_compact t] — exposed for tests of the compaction
    trigger. *)
val appended_since_compact : t -> int

val path : t -> string

val close : t -> unit
