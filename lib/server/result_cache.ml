type key = { fingerprint : int64; method_tag : int; domains : int; max_level : int }

type entry =
  | Exact of { stats : Stats.t; histograms : int array array }
  | Approx of Sketch.profile

type counters = { hits : int; misses : int; entries : int; evictions : int }

type node = { entry : entry; mutable last_used : int }

type t = {
  table : (key, node) Hashtbl.t;
  capacity : int;
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Result_cache.create: capacity must be >= 1";
  {
    table = Hashtbl.create 64;
    capacity;
    mutex = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let touch t node =
  t.tick <- t.tick + 1;
  node.last_used <- t.tick

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        t.hits <- t.hits + 1;
        touch t node;
        Some node.entry
      | None ->
        t.misses <- t.misses + 1;
        None)

(* O(entries) scan; entries is bounded by [capacity] (default 256), so
   eviction cost is trivial next to the kernel run that preceded it. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key node ->
      match !victim with
      | Some (_, oldest) when oldest.last_used <= node.last_used -> ()
      | _ -> victim := Some (key, node))
    t.table;
  match !victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1

let store t key entry =
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some _ -> Hashtbl.remove t.table key
      | None -> ());
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let node = { entry; last_used = 0 } in
      touch t node;
      Hashtbl.replace t.table key node)

(* Peek without counting or recency: anti-entropy probes ("do I already
   hold this key?") must not distort the hit/miss counters or the LRU
   order that serving traffic establishes. *)
let mem t key = with_lock t (fun () -> Hashtbl.mem t.table key)

(* Replica GC's drop primitive. Deliberately not counted as an eviction
   (evictions measure capacity pressure); the server counts GC drops in
   its own health-plane counter. *)
let remove t key = with_lock t (fun () -> Hashtbl.remove t.table key)

(* The anti-entropy digest: exact keys only, matching what [Wal.
   encode_record] can carry — approx entries are neither persisted nor
   replicated, so advertising them would only cause futile pulls. *)
let exact_keys t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun key node acc -> match node.entry with Exact _ -> key :: acc | Approx _ -> acc)
        t.table [])

let snapshot t =
  with_lock t (fun () ->
      Hashtbl.fold (fun key node acc -> (key, node) :: acc) t.table []
      |> List.sort (fun (_, a) (_, b) -> compare a.last_used b.last_used)
      |> List.map (fun (key, node) -> (key, node.entry)))

let capacity t = t.capacity

let counters t =
  with_lock t (fun () ->
      { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.table;
        evictions = t.evictions })

let write_key w k =
  Wire.put_i64 w k.fingerprint;
  Wire.put_varint w k.method_tag;
  Wire.put_varint w k.domains;
  Wire.put_varint w (k.max_level + 1)

let read_key r =
  let fingerprint = Wire.i64 r in
  let method_tag = Wire.varint r in
  let domains = Wire.varint r in
  let max_level = Wire.varint r - 1 in
  { fingerprint; method_tag; domains; max_level }

let write_stats w (s : Stats.t) =
  Wire.put_varint w s.Stats.n;
  Wire.put_varint w s.Stats.n_unique;
  Wire.put_varint w s.Stats.address_bits;
  Wire.put_varint w s.Stats.max_misses

let read_stats r =
  let n = Wire.varint r in
  let n_unique = Wire.varint r in
  let address_bits = Wire.varint r in
  let max_misses = Wire.varint r in
  { Stats.n; n_unique; address_bits; max_misses }
