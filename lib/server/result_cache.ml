type key = { fingerprint : int64; method_tag : int; domains : int; max_level : int }

type entry =
  | Exact of { stats : Stats.t; histograms : int array array }
  | Approx of Sketch.profile
  | Packed of string

type counters = { hits : int; misses : int; entries : int; evictions : int }

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

(* -- the record: one exact entry as one self-framing frame --

     "DSEW" | version (1) | payload length (LEB128) | payload
            | CRC-32 (4 bytes LE, over every preceding record byte)

   Payload: the key and the stats (their layouts above) | level count |
   per level: bucket count | buckets... *)

let record_magic = "DSEW"

let record_version = 1

let iter_histogram_varints f histograms =
  f (Array.length histograms);
  Array.iter
    (fun histogram ->
      f (Array.length histogram);
      Array.iter f histogram)
    histograms

(* One exactly-sized [Bytes]: the key and stats fit in 64 bytes, a
   sizing pass covers the histogram varints, and the frame is written
   and sealed in place. *)
let encode key stats histograms =
  let size = ref 64 in
  iter_histogram_varints (fun v -> size := !size + Wire.varint_size v) histograms;
  let bytes, off, len =
    Wire.framed ~magic:record_magic ~version:record_version !size (fun w ->
        write_key w key;
        write_stats w stats;
        iter_histogram_varints (Wire.put_varint w) histograms)
  in
  Bytes.sub_string bytes off len

let record_eof = "torn record"

(* The frame checks (magic, version, a length that fits before the
   footer, the CRC), then the payload as far as the stats; the reader
   is left at the level count. The CRC is checked before the payload
   is read. *)
let open_record data pos =
  let r = Wire.of_string ~eof:record_eof ~pos data in
  Wire.magic r record_magic;
  Wire.version r ~name:"WAL" record_version;
  let payload_len = Wire.length r in
  if not (Wire.fits ~reserve:4 r payload_len) then
    raise (Wire.Malformed (Wire.offset r, record_eof));
  let c = Wire.sub r payload_len in
  Wire.footer r;
  let key = read_key c in
  let stats = read_stats c in
  (key, stats, c, pos + Wire.offset r)

(* each histogram contributes at least one byte, so a declared count
   beyond the payload is damage the CRC happened to miss *)
let read_histograms c =
  let histograms =
    Array.init (Wire.count c "level count") (fun _ ->
        let histogram = Array.make (Wire.count c "bucket count") 0 in
        for i = 0 to Array.length histogram - 1 do
          histogram.(i) <- Wire.varint c
        done;
        histogram)
  in
  Wire.finish c "record";
  histograms

let skip_histograms c =
  for _ = 1 to Wire.count c "level count" do
    for _ = 1 to Wire.count c "bucket count" do
      ignore (Wire.varint c)
    done
  done;
  Wire.finish c "record"

let check_record data pos =
  let key, _, c, next = open_record data pos in
  skip_histograms c;
  (key, next)

let decode_record data pos =
  let key, stats, c, next = open_record data pos in
  let histograms = read_histograms c in
  (key, Exact { stats; histograms }, next)

let decode record =
  let _, entry, _ = decode_record record 0 in
  entry

(* What the table holds: an exact entry as its record, an approx one as
   its profile. *)
type held = Record of string | Profile of Sketch.profile

type node = { held : held; mutable last_used : int }

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

let lookup t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        t.hits <- t.hits + 1;
        touch t node;
        Some node.held
      | None ->
        t.misses <- t.misses + 1;
        None)

(* decoded outside the lock *)
let find t key =
  match lookup t key with
  | Some (Record record) -> Some (decode record)
  | Some (Profile profile) -> Some (Approx profile)
  | None -> None

let find_packed t key =
  match lookup t key with
  | Some (Record record) -> Some record
  | Some (Profile _) | None -> None

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
  let held =
    match entry with
    | Exact { stats; histograms } -> Record (encode key stats histograms)
    | Packed record -> Record record
    | Approx profile -> Profile profile
  in
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some _ -> Hashtbl.remove t.table key
      | None -> ());
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let node = { held; last_used = 0 } in
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
        (fun key node acc ->
          match node.held with Record _ -> key :: acc | Profile _ -> acc)
        t.table [])

let snapshot t =
  with_lock t (fun () ->
      Hashtbl.fold (fun key node acc -> (key, node) :: acc) t.table []
      |> List.sort (fun (_, a) (_, b) -> compare a.last_used b.last_used)
      |> List.map (fun (key, node) ->
             (key, match node.held with Record record -> Packed record | Profile p -> Approx p)))

let capacity t = t.capacity

let counters t =
  with_lock t (fun () ->
      { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.table;
        evictions = t.evictions })

