(** Single-flight deduplication for the serving layer.

    A burst of identical submissions (same trace content, method and
    level bound — the {!Result_cache.key}) must cost one
    kernel run, not one per connection. The first submission to miss the
    cache becomes the {e leader} and runs the job; every concurrent
    duplicate {e attaches} as a waiter and is answered from the leader's
    outcome — success and failure alike, since a duplicate would fail
    identically.

    State machine per key: absent --[begin_: `Leader]--> in-flight
    --[begin_: `Attached]*--> in-flight --[complete]--> absent. The
    leader's worker calls {!complete} after the result is stored in the
    cache (so a submission racing the completion hits the cache instead
    of electing a redundant leader), then replies to the returned
    waiters itself. If the leader's job cannot even be queued, the
    submitter calls {!complete} immediately and fails all parties.

    Attached waiters share the leader's fate {e and the leader's
    deadline}: a coalesced request's own [--deadline] is not enforced
    (it did not start a kernel it could cancel). *)

type waiter = {
  fd : Unix.file_descr;
  name : string;  (** the waiter's own display name for its reply *)
  query : Protocol.query;  (** the waiter's own query, answered from the shared histograms *)
}

type t

val create : unit -> t

(** [begin_ t key waiter] either elects the caller leader (the waiter
    record is discarded — the leader replies through its own job) or
    attaches it to the flight already running [key]. *)
val begin_ : t -> Result_cache.key -> waiter -> [ `Leader | `Attached ]

(** [complete t key] ends the flight and returns its waiters in attach
    order; the caller owns replying to (and closing) each. *)
val complete : t -> Result_cache.key -> waiter list

(** Total submissions answered by attaching to another's flight — the
    [coalesced_hits] server counter. *)
val coalesced : t -> int
