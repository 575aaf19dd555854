(** Off-heap flat arenas for the hot analysis state.

    [Bigarray]-backed storage the GC never scans, copies, or counts:
    the data plane of the [--method arena] kernel. A handle is a small
    on-heap proxy; the payload lives outside the OCaml heap, so
    [top_heap_words] stays proportional to the boxed control state, not
    the trace.

    Accessors are bounds-unchecked by design — every index in the
    kernel is derived from a length the arena was created with. The
    int32/int conversions at the boundary are erased by the compiler's
    local unboxing (no per-access allocation; property-checked by the
    bench minor-word assertions). *)

(** 4-byte entries: the kernel's slot maps. Callers must keep values
    within int32 range; the interner bounds N' so that ids and slot
    indices fit. *)
type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** 8-byte native-int entries: address and counter tables. *)
type word = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Creation zero-fills. A requested size of 0 still allocates one
    entry, so sentinel-at-[n] layouts stay addressable on empty input. *)
val i32_create : int -> i32

val word_create : int -> word

val i32_length : i32 -> int

val word_length : word -> int

val i32_get : i32 -> int -> int

val i32_set : i32 -> int -> int -> unit

val word_get : word -> int -> int

val word_set : word -> int -> int -> unit

(** [word_grow a ~len ~capacity] is a zeroed arena of [capacity] entries
    with [a]'s first [len] entries blitted in — the doubling step of the
    growable tally and unique tables, bigarray-to-bigarray. *)
val word_grow : word -> len:int -> capacity:int -> word

(** [i32_grow] is {!word_grow} for 4-byte entries: the growth step of
    the kernel's slot maps. *)
val i32_grow : i32 -> len:int -> capacity:int -> i32
