(* One-pass trace sketches. Everything in this module is O(kilobytes)
   regardless of trace length: the point is to profile a 10^8..10^9
   reference stream that the exact kernels (O(N') at best) cannot hold.

   Four sketches run side by side over a single feed:
   - an exact scalar pass (N, max address, depth-1 transition count);
   - HyperLogLog over bigarray registers for N' (distinct addresses);
   - Space-Saving for the top-K heavy hitters (the popularity profile
     head that the Che/Fagin estimator treats exactly);
   - two bucketed-LRU reuse probes (full-rate and 1/256 spatially
     sampled, SHARDS-style) measuring the *observed* fully-associative
     warm miss rate at a ladder of capacities — the ground wire that
     calibrates the model and makes its error bars honest. *)

(* -- 64-bit mixing (splitmix64 finalizer) -- *)

(* [@inline], like [hash_addr] and [Hll.add_hash]: an [int64] passed
   between functions is boxed, so each addition to a sketch would
   otherwise allocate. *)
let[@inline] mix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] hash_addr ~salt addr = mix64 (Int64.logxor (Int64.of_int addr) salt)

(* -- fixed-capacity open-addressing int -> int index -- *)

module Imap = struct
  (* The hot indexes below (Space-Saving, reuse probes) delete and
     re-insert a key on every miss; with a Hashtbl there, each churn
     promotes a bucket cell into the major heap, and on a high-miss
     stream the accumulated dead cells float the process's peak heap
     with the miss rate. Linear probing over two int arrays allocates
     only at [create]; deletion backward-shifts the cluster, so there
     are no tombstones and no rebuilds. Callers keep [live] strictly
     below the array size (they are capacity-bounded summaries). *)
  type t = { mask : int; keys : int array; vals : int array }

  let create capacity =
    let size =
      let rec up s = if s >= 4 * capacity then s else up (2 * s) in
      up 16
    in
    { mask = size - 1; keys = Array.make size (-1); vals = Array.make size 0 }

  let slot t addr =
    let h = addr * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land t.mask

  let find t addr =
    let rec go i =
      let k = t.keys.(i) in
      if k = -1 then -1
      else if k = addr then t.vals.(i)
      else go ((i + 1) land t.mask)
    in
    go (slot t addr)

  let set t addr v =
    let rec go i =
      let k = t.keys.(i) in
      if k = addr then t.vals.(i) <- v
      else if k = -1 then begin
        t.keys.(i) <- addr;
        t.vals.(i) <- v
      end
      else go ((i + 1) land t.mask)
    in
    go (slot t addr)

  let remove t addr =
    let rec locate i =
      let k = t.keys.(i) in
      if k = -1 then -1 else if k = addr then i else locate ((i + 1) land t.mask)
    in
    let hole = locate (slot t addr) in
    if hole >= 0 then begin
      (* backward-shift: an entry displaced [d] slots from its home may
         fill any hole at most [d] slots behind it *)
      let rec shift hole j =
        let k = t.keys.(j) in
        if k = -1 then t.keys.(hole) <- -1
        else if (j - slot t k) land t.mask >= (j - hole) land t.mask then begin
          t.keys.(hole) <- k;
          t.vals.(hole) <- t.vals.(j);
          shift j ((j + 1) land t.mask)
        end
        else shift hole ((j + 1) land t.mask)
      in
      shift hole ((hole + 1) land t.mask)
    end
end

(* -- HyperLogLog -- *)

module Hll = struct
  type t = {
    bits : int;
    regs : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
    salt : int64;
  }

  let create ?(bits = 14) ?(salt = 0x5851F42D4C957F2DL) () =
    if bits < 4 || bits > 18 then invalid_arg "Hll.create: bits must be within 4..18";
    let regs = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout (1 lsl bits) in
    Bigarray.Array1.fill regs 0;
    { bits; regs; salt }

  (* rank = trailing-zero count of the non-index hash bits, + 1; the
     geometric tail means the loop runs ~2 iterations on average *)
  let[@inline] add_hash t h =
    let idx = Int64.to_int (Int64.logand h (Int64.of_int ((1 lsl t.bits) - 1))) in
    let w = Int64.shift_right_logical h t.bits in
    let limit = 64 - t.bits + 1 in
    let rank = ref 1 in
    let w = ref w in
    while !rank < limit && Int64.logand !w 1L = 0L do
      incr rank;
      w := Int64.shift_right_logical !w 1
    done;
    if !rank > Bigarray.Array1.unsafe_get t.regs idx then
      Bigarray.Array1.unsafe_set t.regs idx !rank

  let add t addr = add_hash t (hash_addr ~salt:t.salt addr)

  let estimate t =
    let m = 1 lsl t.bits in
    let fm = float_of_int m in
    let sum = ref 0. in
    let zeros = ref 0 in
    for i = 0 to m - 1 do
      let r = Bigarray.Array1.unsafe_get t.regs i in
      if r = 0 then incr zeros;
      sum := !sum +. ldexp 1.0 (-r)
    done;
    let alpha = 0.7213 /. (1. +. (1.079 /. fm)) in
    let raw = alpha *. fm *. fm /. !sum in
    if raw <= 2.5 *. fm && !zeros > 0 then
      (* linear-counting correction: near-exact in the small range *)
      fm *. log (fm /. float_of_int !zeros)
    else raw

  let rel_error t = 1.04 /. sqrt (float_of_int (1 lsl t.bits))

  (* register-wise max: exactly the sketch of the union of the two
     streams, hence associative and commutative by construction *)
  let merge a b =
    if a.bits <> b.bits || a.salt <> b.salt then
      invalid_arg "Hll.merge: incompatible sketches";
    let m = create ~bits:a.bits ~salt:a.salt () in
    for i = 0 to (1 lsl a.bits) - 1 do
      Bigarray.Array1.unsafe_set m.regs i
        (max (Bigarray.Array1.unsafe_get a.regs i) (Bigarray.Array1.unsafe_get b.regs i))
    done;
    m

  let equal a b =
    a.bits = b.bits && a.salt = b.salt
    &&
    let same = ref true in
    for i = 0 to (1 lsl a.bits) - 1 do
      if Bigarray.Array1.unsafe_get a.regs i <> Bigarray.Array1.unsafe_get b.regs i then
        same := false
    done;
    !same
end

(* -- hybrid distinct counter -- *)

module Distinct = struct
  (* Exact up to [limit] distinct values (a unit hashtable), HLL beyond.
     Embedded traces routinely have tiny working sets (PowerStone
     instruction traces: N' < 100); an HLL register-index collision
     there costs several percent, while the exact table costs a bounded
     few hundred KiB and is *zero*-error until it overflows. The HLL is
     fed from the first access so the handoff loses nothing. *)
  type t = {
    hll : Hll.t;
    mutable table : (int, unit) Hashtbl.t option;
    limit : int;
  }

  let create ?bits ?salt ?(limit = 4096) () =
    if limit < 1 then invalid_arg "Distinct.create: limit must be positive";
    { hll = Hll.create ?bits ?salt (); table = Some (Hashtbl.create 256); limit }

  let add t addr =
    Hll.add t.hll addr;
    match t.table with
    | Some tb ->
      if not (Hashtbl.mem tb addr) then begin
        Hashtbl.replace tb addr ();
        if Hashtbl.length tb > t.limit then t.table <- None
      end
    | None -> ()

  let exact t = t.table <> None

  let estimate t =
    match t.table with
    | Some tb -> float_of_int (Hashtbl.length tb)
    | None -> Hll.estimate t.hll

  let rel_error t = match t.table with Some _ -> 0. | None -> Hll.rel_error t.hll

  let state_bytes t = (1 lsl t.hll.Hll.bits) + (24 * t.limit)
end

(* -- Space-Saving heavy hitters -- *)

module Topk = struct
  (* The classic Metwally et al. summary: a min-heap of K counters; an
     unmonitored address replaces the minimum and inherits its count as
     an overcount bound. For a power-law stream the head counters
     converge to the true frequencies (overcount 0 for the true heavy
     hitters), which is exactly the regime approx mode is for. *)
  type t = {
    capacity : int;
    mutable size : int;
    addrs : int array;
    counts : int array;
    overs : int array;
    index : Imap.t;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Topk.create: capacity must be positive";
    {
      capacity;
      size = 0;
      addrs = Array.make capacity 0;
      counts = Array.make capacity 0;
      overs = Array.make capacity 0;
      index = Imap.create capacity;
    }

  let swap t i j =
    let sa = t.addrs.(i) and sc = t.counts.(i) and so = t.overs.(i) in
    t.addrs.(i) <- t.addrs.(j);
    t.counts.(i) <- t.counts.(j);
    t.overs.(i) <- t.overs.(j);
    t.addrs.(j) <- sa;
    t.counts.(j) <- sc;
    t.overs.(j) <- so;
    Imap.set t.index t.addrs.(i) i;
    Imap.set t.index t.addrs.(j) j

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.counts.(parent) > t.counts.(i) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && t.counts.(l) < t.counts.(!smallest) then smallest := l;
    if r < t.size && t.counts.(r) < t.counts.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let add t addr =
    let i = Imap.find t.index addr in
    if i >= 0 then begin
      t.counts.(i) <- t.counts.(i) + 1;
      sift_down t i
    end
    else if t.size < t.capacity then begin
      let i = t.size in
      t.size <- i + 1;
      t.addrs.(i) <- addr;
      t.counts.(i) <- 1;
      t.overs.(i) <- 0;
      Imap.set t.index addr i;
      sift_up t i
    end
    else begin
      let floor_count = t.counts.(0) in
      Imap.remove t.index t.addrs.(0);
      t.addrs.(0) <- addr;
      t.counts.(0) <- floor_count + 1;
      t.overs.(0) <- floor_count;
      Imap.set t.index addr 0;
      sift_down t 0
    end

  (* count-descending (addr-ascending among ties, for determinism) *)
  let ranked t =
    let out =
      Array.init t.size (fun i -> (t.addrs.(i), t.counts.(i), t.overs.(i)))
    in
    Array.sort
      (fun (a1, c1, _) (a2, c2, _) -> if c1 <> c2 then compare c2 c1 else compare a1 a2)
      out;
    out
end

(* -- bucketed-LRU reuse probe -- *)

module Probe = struct
  (* An LRU stack over (a spatial sample of) the addresses, organised as
     a ladder of capacity buckets: bucket b holds the stack entries with
     positions in (boundary.(b-1), boundary.(b)]. A hit found in bucket
     b is a fully-associative hit at every capacity >= its bucket
     ceiling and a miss below — so per-bucket hit tallies integrate into
     exact sampled miss counts at every boundary capacity at once.
     Promotion to the stack top demotes one tail entry per fuller
     bucket: O(#buckets) worst case per access, O(1) amortised.

     With sampling shift s > 0 only addresses whose hash has s leading
     zero bits participate (p = 2^-s of the address space); sampled
     stack distances are ~p times the true ones (SHARDS), so boundary b
     observes the true miss rate at capacity boundary.(b) * 2^s. A
     small per-probe HLL of the sampled addresses splits "not found"
     into cold first-touches vs warm re-references beyond the last
     boundary, keeping the warm miss rates cold-free like the exact
     kernel's histograms. *)

  let boundaries =
    (* unit steps through the associativity range, then a half-octave
       ladder 8 .. 8192 — small capacities are exactly where the L0
       (fully-associative) table column reads the ladder *)
    let rec build k acc =
      let b =
        int_of_float (Float.round (8. *. Float.pow 2. (float_of_int k /. 2.)))
      in
      if b > 8192 then List.rev acc else build (k + 1) (b :: acc)
    in
    Array.of_list ([ 1; 2; 3; 4; 6 ] @ build 0 [])

  let nbuckets = Array.length boundaries

  let capacity_total = boundaries.(nbuckets - 1)

  type t = {
    shift : int;
    salt : int64;
    caps : int array;
    sizes : int array;
    hits : int array;
    addr_of : int array;
    bucket_of : int array;
    next : int array;
    (* nodes 0..S-1, then one sentinel per bucket at S+b *)
    prev : int array;
    index : Imap.t;
    mutable used : int;
    mutable sampled : int;
    mutable absent : int;
    seen : Distinct.t;
  }

  let create ~shift ~salt =
    let s = capacity_total in
    let caps =
      Array.init nbuckets (fun b ->
          if b = 0 then boundaries.(0) else boundaries.(b) - boundaries.(b - 1))
    in
    let next = Array.init (s + nbuckets) (fun i -> i) in
    let prev = Array.init (s + nbuckets) (fun i -> i) in
    {
      shift;
      salt;
      caps;
      sizes = Array.make nbuckets 0;
      hits = Array.make nbuckets 0;
      addr_of = Array.make s 0;
      bucket_of = Array.make s 0;
      next;
      prev;
      index = Imap.create s;
      used = 0;
      sampled = 0;
      absent = 0;
      seen = Distinct.create ~bits:11 ~salt ();
    }

  let sentinel b = capacity_total + b

  let unlink t n =
    t.next.(t.prev.(n)) <- t.next.(n);
    t.prev.(t.next.(n)) <- t.prev.(n)

  let push_head t b n =
    let s = sentinel b in
    let first = t.next.(s) in
    t.next.(s) <- n;
    t.prev.(n) <- s;
    t.next.(n) <- first;
    t.prev.(first) <- n;
    t.bucket_of.(n) <- b

  (* demote overfull buckets' tails downward, starting at bucket 0 *)
  let cascade t =
    let b = ref 0 in
    let continue = ref true in
    while !continue && !b < nbuckets do
      if t.sizes.(!b) > t.caps.(!b) then begin
        let tail = t.prev.(sentinel !b) in
        unlink t tail;
        t.sizes.(!b) <- t.sizes.(!b) - 1;
        push_head t (!b + 1) tail;
        t.sizes.(!b + 1) <- t.sizes.(!b + 1) + 1;
        incr b
      end
      else continue := false
    done

  (* the global LRU tail lives in the highest nonempty bucket *)
  let evict_tail t =
    let b = ref (nbuckets - 1) in
    while !b > 0 && t.sizes.(!b) = 0 do
      decr b
    done;
    let tail = t.prev.(sentinel !b) in
    unlink t tail;
    t.sizes.(!b) <- t.sizes.(!b) - 1;
    Imap.remove t.index t.addr_of.(tail);
    tail

  let access t addr =
    let h = hash_addr ~salt:t.salt addr in
    if t.shift > 0 && Int64.shift_right_logical h (64 - t.shift) <> 0L then ()
    else begin
      t.sampled <- t.sampled + 1;
      Distinct.add t.seen addr;
      let n0 = Imap.find t.index addr in
      if n0 >= 0 then begin
        let b = t.bucket_of.(n0) in
        t.hits.(b) <- t.hits.(b) + 1;
        unlink t n0;
        t.sizes.(b) <- t.sizes.(b) - 1;
        push_head t 0 n0;
        t.sizes.(0) <- t.sizes.(0) + 1;
        cascade t
      end
      else begin
        t.absent <- t.absent + 1;
        let n =
          if t.used < capacity_total then begin
            let n = t.used in
            t.used <- n + 1;
            n
          end
          else evict_tail t
        in
        t.addr_of.(n) <- addr;
        Imap.set t.index addr n;
        push_head t 0 n;
        t.sizes.(0) <- t.sizes.(0) + 1;
        cascade t
      end
    end
end

(* -- profile: the finalized, serialisable output -- *)

type heavy = { addr : int; count : int; overcount : int }

type probe_point = { capacity : int; rate : float; rate_err : float }

type profile = {
  n : int;
  distinct : float;
  distinct_rel_err : float;
  max_addr : int;
  transitions : int;
  heavy : heavy array;
  probes : probe_point array;
  fingerprint : int64;
}

(* -- the combined one-pass sketch -- *)

type t = {
  mutable n : int;
  mutable max_addr : int;
  mutable transitions : int;
  mutable prev_addr : int;
  fp : Trace.fingerprinter;
  distinct : Distinct.t;
  topk : Topk.t;
  fine : Probe.t;
  coarse : Probe.t;
}

let coarse_shift = 8

let create ?(top_k = 1024) () =
  {
    n = 0;
    max_addr = 0;
    transitions = 0;
    prev_addr = -1;
    fp = Trace.fingerprinter ();
    distinct = Distinct.create ~bits:14 ();
    topk = Topk.create ~capacity:top_k;
    fine = Probe.create ~shift:0 ~salt:0x243F6A8885A308D3L;
    coarse = Probe.create ~shift:coarse_shift ~salt:0x452821E638D01377L;
  }

let add t ~addr ~kind:_ =
  if addr < 0 then invalid_arg "Sketch.add: negative address";
  t.n <- t.n + 1;
  if addr > t.max_addr then t.max_addr <- addr;
  if addr <> t.prev_addr then begin
    t.transitions <- t.transitions + 1;
    t.prev_addr <- addr
  end;
  Trace.fingerprinter_add t.fp addr;
  Distinct.add t.distinct addr;
  Topk.add t.topk addr;
  Probe.access t.fine addr;
  Probe.access t.coarse addr

let feed t ~addr ~kind = add t ~addr ~kind

(* spatial sampling decorrelates only so much: inflate the binomial
   standard error of the sparse probe's rates by this factor *)
let sparse_inflation = 1.5

let probe_points (p : Probe.t) =
  let scale = 1 lsl p.Probe.shift in
  let distinct_s = Distinct.estimate p.Probe.seen in
  let distinct_err = distinct_s *. Distinct.rel_error p.Probe.seen in
  let warm = float_of_int p.Probe.sampled -. distinct_s in
  if warm < 16. then []
  else
    let absent_warm = Float.max 0. (float_of_int p.Probe.absent -. distinct_s) in
    let beyond = ref absent_warm in
    let points = ref [] in
    for b = Probe.nbuckets - 1 downto 0 do
      (* misses at capacity boundaries.(b) = hits found deeper + warm
         re-references that fell off the ladder entirely *)
      let rate = Float.min 1. (Float.max 0. (!beyond /. warm)) in
      let binomial = sqrt (rate *. (1. -. rate) /. warm) in
      let binomial = if p.Probe.shift > 0 then binomial *. sparse_inflation else binomial in
      (* the HLL split shifts numerator and denominator together *)
      let hll_term = distinct_err *. (1. +. rate) /. warm in
      let err = binomial +. hll_term +. (1. /. warm) in
      points :=
        { capacity = Probe.boundaries.(b) * scale; rate; rate_err = err } :: !points;
      beyond := !beyond +. float_of_int p.Probe.hits.(b)
    done;
    !points

let finalize t =
  let fine = probe_points t.fine in
  let coarse = probe_points t.coarse in
  (* one ladder: ascending capacity, the exact (fine) probe winning
     where the two overlap *)
  let merged =
    List.sort_uniq
      (fun (a : probe_point) b ->
        if a.capacity <> b.capacity then compare a.capacity b.capacity
        else compare a.rate_err b.rate_err)
      (fine @ coarse)
  in
  let rec dedupe = function
    | a :: (b :: _ as rest) when a.capacity = (b : probe_point).capacity -> a :: dedupe (List.tl rest)
    | a :: rest -> a :: dedupe rest
    | [] -> []
  in
  {
    n = t.n;
    distinct = (if t.n = 0 then 0. else Float.max 1. (Distinct.estimate t.distinct));
    distinct_rel_err = Distinct.rel_error t.distinct;
    max_addr = t.max_addr;
    transitions = t.transitions;
    heavy =
      Array.map (fun (addr, count, overcount) -> { addr; count; overcount })
        (Topk.ranked t.topk);
    probes = Array.of_list (dedupe merged);
    fingerprint = Trace.fingerprinter_finish t.fp ~len:t.n;
  }

let of_trace ?top_k trace =
  let t = create ?top_k () in
  Trace.iter_records (add t) trace;
  finalize t

type distinct = { counter : Distinct.t; mutable added : int }

let distinct_create () = { counter = Distinct.create ~bits:14 (); added = 0 }

let distinct_add d addr =
  Distinct.add d.counter addr;
  d.added <- d.added + 1

let distinct_estimate d = if d.added = 0 then 0. else Float.max 1. (Distinct.estimate d.counter)

(* rough but honest: every O(kilobytes) claim in the docs is this number *)
let state_bytes t =
  let probe_bytes (p : Probe.t) =
    (* 5 int arrays over nodes+sentinels, the index hashtable (~4 words
       per binding), the seen counter *)
    let nodes = Probe.capacity_total + Probe.nbuckets in
    (5 * 8 * nodes) + (4 * 8 * Probe.capacity_total) + Distinct.state_bytes p.Probe.seen
  in
  Distinct.state_bytes t.distinct
  + (3 * 8 * t.topk.Topk.capacity)
  + (4 * 8 * t.topk.Topk.capacity)
  + probe_bytes t.fine + probe_bytes t.coarse

let address_bits (p : profile) =
  let rec bits n acc = if n = 0 then max acc 1 else bits (n lsr 1) (acc + 1) in
  bits p.max_addr 0
