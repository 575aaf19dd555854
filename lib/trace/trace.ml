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

(* The input loop of [Analytical.prepare]'s stream: no access record,
   no kind decode, no bounds check per element — [len] bounds the
   unsafe read. *)
let iter_addrs f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.addrs i)
  done

let iter_records f t =
  for i = 0 to t.len - 1 do
    f ~addr:(Array.unsafe_get t.addrs i) ~kind:(kind_of_char (Bytes.unsafe_get t.kinds i))
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

(* Straight-line and inlined, so a fold over a trace keeps the hash in
   a register: the loop form boxed two int64s per address. *)
let[@inline] fnv_byte h v shift =
  Int64.mul (Int64.logxor h (Int64.of_int ((v lsr shift) land 0xFF))) fnv_prime

let[@inline] fingerprint_add h v =
  let h = fnv_byte h v 0 in
  let h = fnv_byte h v 8 in
  let h = fnv_byte h v 16 in
  let h = fnv_byte h v 24 in
  let h = fnv_byte h v 32 in
  let h = fnv_byte h v 40 in
  let h = fnv_byte h v 48 in
  fnv_byte h v 56

let fingerprint_finish h ~len = fingerprint_add h len

let fingerprint t =
  let h = ref fingerprint_init in
  for i = 0 to t.len - 1 do
    h := fingerprint_add !h t.addrs.(i)
  done;
  fingerprint_finish !h ~len:t.len

(* The running hash as 8 bytes: updating it stores the [int64] raw, so
   a sink that is a closure allocates nothing per address. *)
type fingerprinter = Bytes.t

let fingerprinter () =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 fingerprint_init;
  b

let[@inline] fingerprinter_add b v = Bytes.set_int64_le b 0 (fingerprint_add (Bytes.get_int64_le b 0) v)

let fingerprinter_finish b ~len = fingerprint_finish (Bytes.get_int64_le b 0) ~len

(* Pessimistic footprint, in bytes, of admitting an exact job. Every
   exact daemon job decodes its upload's record bytes into a one-pass
   [Arena_kernel] stream, so [`Arena] prices what that holds at its
   all-unique worst (N' = N), just past a doubling (N = 2^k + 1), with
   addresses up to 61 bits wide, per reference:
    10  the frame's record bytes (a varint of up to 9 bytes, the old
        read buffers of its 32x growth), kept as the records;
    24  the unique-address arena: 8 B/unique, doubled when full, and
        the old copies stay resident until the GC finalises them;
    48  the interner's table: 8 B cells at most half full, so up to
        32 B/unique, plus the old tables of earlier rehashes;
    12  the id -> slot map, 4 B/unique, doubled when full, with its old
        copies;
    13  the slot -> id map over ~1.5 N' x 64/62 slots, with the copy a
        compaction's widening leaves;
    25  the alive masks and up to 62 bit-planes: 8 B per 62 slots
        each, with their widening copy.
   Tallies are O(levels x largest count), nothing on an all-unique
   trace. That sums to ~132 B/ref. Measured with the earlier ~2 N'
   slots and a base-address word per slot word (~144 B/ref by the same
   sum; release build, one-worker [dse serve], daemon VmHWM growth for
   one submit of 2^18+1 to 2^20+1 all-unique references): 99-133 B/ref at 30-bit addresses, 147-157
   B/ref at 52- and 60-bit ones, the spread being when the GC frees old
   arenas. 192 per reference bounds that with a fifth to spare; the
   128 KiB floor is a fresh stream's initial tables.

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
  | `Arena -> (128 * 1024) + (refs * 192)
  | `Sketch -> sketch_bytes

let pp_kind fmt k = Format.fprintf fmt "%c" (kind_to_char k)

let equal_kind a b =
  match (a, b) with
  | Fetch, Fetch | Read, Read | Write, Write -> true
  | (Fetch | Read | Write), _ -> false
