(* Off-heap flat storage for the hot analysis state.

   Bigarray data lives outside the OCaml major heap: the GC neither
   scans nor copies it, [Gc.stat ()]'s [top_heap_words] does not count
   it (only the small proxy record is on-heap). That is exactly what the
   kernel wants: tables of N' or N entries with none of the boxed
   [int array] footprint that used to dominate peak heap.

   Two element widths cover every table the kernel keeps:
     - [i32]: per-reference and per-slot tables (stripped ids, the
       kernel's slot <-> id maps). 4 bytes per entry; ids and slot
       indices stay below 2^31, checked by the strip builder.
     - [word]: tables indexed by or holding full addresses / counters
       (uniques, tallies). Native 63-bit ints, 8 bytes per entry,
       unboxed on access.

   The accessors convert at the boundary ([Int32.of_int]/[to_int]);
   classic ocamlopt unboxes these locally, so reads and writes in the
   kernel loops allocate nothing (asserted by the bench's minor-word
   counters and the zero-copy test). *)

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type word = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let i32_create n : i32 =
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max n 1) in
  Bigarray.Array1.fill a 0l;
  a

let word_create n : word =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max n 1) in
  Bigarray.Array1.fill a 0;
  a

let i32_length (a : i32) = Bigarray.Array1.dim a

let word_length (a : word) = Bigarray.Array1.dim a

(* Small bodies on purpose: classic ocamlopt (no flambda) still inlines
   them cross-module, which keeps the int32 boxing local and erased. *)
let i32_get (a : i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let i32_set (a : i32) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

let word_get (a : word) i = Bigarray.Array1.unsafe_get a i

let word_set (a : word) i (v : int) = Bigarray.Array1.unsafe_set a i v

(* [grow create a ~len ~capacity] is a fresh zeroed arena of [capacity]
   entries from [create], with [a]'s first [len] copied over: the
   doubling step of growable tables, for both widths. The copy is
   bigarray-to-bigarray: no boxed intermediate. *)
let grow create a ~len ~capacity =
  let bigger = create capacity in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 len) (Bigarray.Array1.sub bigger 0 len);
  bigger

let word_grow (a : word) ~len ~capacity = grow word_create a ~len ~capacity

let i32_grow (a : i32) ~len ~capacity = grow i32_create a ~len ~capacity
