type kind = Fetch | Read | Write

type access = { addr : int; kind : kind }

(* Parallel growable arrays: addresses as ints, kinds packed as chars. *)
type t = {
  mutable addrs : int array;
  mutable kinds : Bytes.t;
  mutable len : int;
}

let kind_to_char = function Fetch -> 'F' | Read -> 'R' | Write -> 'W'

let kind_of_char = function
  | 'F' -> Fetch
  | 'R' -> Read
  | 'W' -> Write
  | c -> invalid_arg (Printf.sprintf "Trace.kind_of_char: %c" c)

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  { addrs = Array.make capacity 0; kinds = Bytes.make capacity 'R'; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.addrs in
  let cap' = cap * 2 in
  let addrs = Array.make cap' 0 in
  Array.blit t.addrs 0 addrs 0 t.len;
  let kinds = Bytes.make cap' 'R' in
  Bytes.blit t.kinds 0 kinds 0 t.len;
  t.addrs <- addrs;
  t.kinds <- kinds

let add t ~addr ~kind =
  if addr < 0 then invalid_arg "Trace.add: negative address";
  if t.len = Array.length t.addrs then grow t;
  t.addrs.(t.len) <- addr;
  Bytes.unsafe_set t.kinds t.len (kind_to_char kind);
  t.len <- t.len + 1

let check_index t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Trace: index %d out of [0, %d)" i t.len)

let addr t i =
  check_index t i;
  t.addrs.(i)

let kind t i =
  check_index t i;
  kind_of_char (Bytes.get t.kinds i)

let get t i = { addr = addr t i; kind = kind t i }

let iteri f t =
  for i = 0 to t.len - 1 do
    f i { addr = t.addrs.(i); kind = kind_of_char (Bytes.get t.kinds i) }
  done

let iter f t = iteri (fun _ a -> f a) t

(* The arena strip builder's input loop: no access record, no kind
   decode, no bounds check per element — [len] bounds the unsafe read. *)
let iter_addrs f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.addrs i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun a -> acc := f !acc a) t;
  !acc

let of_list accesses =
  let t = create ~capacity:(max 1 (List.length accesses)) () in
  List.iter (fun a -> add t ~addr:a.addr ~kind:a.kind) accesses;
  t

let of_addresses ?(kind = Read) addrs =
  let t = create ~capacity:(max 1 (Array.length addrs)) () in
  Array.iter (fun a -> add t ~addr:a ~kind) addrs;
  t

let to_list t = List.rev (fold (fun acc a -> a :: acc) [] t)

let addresses t = Array.sub t.addrs 0 t.len

let is_data a = match a.kind with Read | Write -> true | Fetch -> false

let is_fetch a = match a.kind with Fetch -> true | Read | Write -> false

let filter keep t =
  let out = create () in
  iter (fun a -> if keep a then add out ~addr:a.addr ~kind:a.kind) t;
  out

let max_addr t =
  let m = ref 0 in
  for i = 0 to t.len - 1 do
    if t.addrs.(i) > !m then m := t.addrs.(i)
  done;
  !m

let address_bits t =
  let rec bits n acc = if n = 0 then max acc 1 else bits (n lsr 1) (acc + 1) in
  bits (max_addr t) 0

let append dst src =
  iter (fun a -> add dst ~addr:a.addr ~kind:a.kind) src

(* FNV-1a, 64-bit: offset basis 0xcbf29ce484222325, prime 0x100000001b3.
   Folds each address as 8 little-endian bytes, then the length, so two
   traces collide only if they agree on every address in order AND on N.
   Kinds are excluded: the analytical model depends only on addresses, so
   kind-differing traces may (deliberately) share a fingerprint. *)
let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let fingerprint_init = fnv_offset

let fingerprint_add h v =
  let h = ref h in
  for shift = 0 to 7 do
    let byte = (v lsr (8 * shift)) land 0xFF in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime
  done;
  !h

let fingerprint_finish h ~len = fingerprint_add h len

let fingerprint t =
  let h = ref fingerprint_init in
  for i = 0 to t.len - 1 do
    h := fingerprint_add !h t.addrs.(i)
  done;
  fingerprint_finish !h ~len:t.len

(* Pessimistic per-reference footprint, in bytes, of admitting an
   exact job. [`Arena] prices the off-heap arena kernel from a
   measurement: the peak resident bytes of a one-domain
   [Analytical.prepare] + [histograms] over a decoded trace, on
   all-unique traces of 10^5 to 4 x 10^6 references and on the 24
   registry traces. An all-unique trace is the worst case, because
   every per-unique table is then as large as the trace allows:
     9  the decoded trace (8-byte address word + 1 kind byte, boxed);
     4  the int32 id arena;
    24  the unique-address arena: 8 B/unique, doubled when full, and
        the old copy lives until the GC frees it;
    48  the strip builder's hash table: 8 B entries at most half full,
        so up to 32 B/unique, plus the old table during a rehash.
   The kernel's slot state (8 B/unique of slot -> id map at ~2 N'
   capacity, 4 B of id -> slot map, ~0.26 B per bit-plane) comes
   after the builder's tables are garbage and added ~1 B/ref to their
   peak. Measured worst: 87 B/ref over the trace at 2^21 + 1 uniques;
   on the registry traces at most 38. 100 per reference plus a 1 KiB
   fixed floor. Each further shard domain adds its own slot state, up
   to ~16 B/unique (141 B/ref over the trace at 4 domains, all-unique);
   the price does not depend on the domain count.

   This over- rather than under-estimates, which is the right direction
   for admission control: rejecting a job that would have fit costs a
   retry elsewhere; admitting one that does not fit OOMs the daemon. *)
(* [`Sketch] — the one-pass approximate profiler never materialises the
   trace at all: HLL registers (8 KiB), the top-K table (~100 KiB) and
   two bucketed-LRU probes (~1 MiB) are fixed-size whatever [refs] is.
   4 MiB is a generous ceiling over the measured footprint. *)
let sketch_bytes = 4 * 1024 * 1024

let estimate_bytes ~model ~refs =
  if refs < 0 then invalid_arg "Trace.estimate_bytes: negative reference count";
  match model with
  | `Arena -> 1024 + (refs * 100)
  | `Sketch -> sketch_bytes

let pp_kind fmt k = Format.fprintf fmt "%c" (kind_to_char k)

let equal_kind a b =
  match (a, b) with
  | Fetch, Fetch | Read, Read | Write, Write -> true
  | (Fetch | Read | Write), _ -> false
