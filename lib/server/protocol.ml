(* Wire format, reusing the LEB128 + CRC-32 idiom of the v2 binary
   trace framing (lib/trace/trace_io.ml):

     "DSRV" | version (1 byte) | tag (1 byte) | payload length (LEB128)
            | payload | CRC-32 (4 bytes LE, over every preceding byte)

   All integer fields inside payloads are non-negative LEB128 varints;
   strings are length-prefixed; trace records use the same
   (addr lsl 2) lor kind_tag encoding as the binary trace format. Any
   framing damage (bad magic, truncated varint, CRC mismatch, declared
   lengths exceeding the payload) surfaces as a typed
   [Dse_error.Corrupt_binary] with the byte offset, never a raw
   exception — a corrupt submission must be a structured reply to that
   one client, not a daemon crash. *)

let magic = "DSRV"

(* v2: Submit carries an optional deadline, error payloads gained the
   Deadline_exceeded tag, and stats replies the coalesced-hit and
   eviction counters. Client and daemon ship from the same tree, so the
   version is bumped in lockstep rather than negotiated.

   v3: Queue_full carries a retry-after hint, error payloads gained the
   Worker_stalled and Resource_exhausted tags, and a Health request /
   Health_reply pair exposes the readiness plane (per-worker heartbeat
   ages, queue watermark, shed and admission counters, WAL health).

   v4: Health_reply carries the node's identity (stable node id + start
   epoch) so a router can tell a respawned backend — cold cache, fresh
   breaker slate — from a long-lived one, and error payloads gained the
   Backend_unavailable tag for exhausted gateway failover.

   v5: the Submit method byte grew a fifth value (4 = approx), outcomes
   gained the Approx_table and Approx_optimal tags (error-bar fields as
   IEEE-754 bits, so a cached re-query is bit-identical to the first
   answer), and the daemon decodes an approx submission's records
   straight into a streaming sketch — the trace never materialises
   server-side, which is why admission prices it at the sketch's fixed
   footprint instead of per reference.

   v6: the cluster-durability verbs. Replicate carries finished result
   entries (in the WAL snapshot record encoding, opaque strings at this
   layer) to a backend's ring successors; Cache_query asks a peer for
   its cache-key digest (empty key list) or for the entries of specific
   keys, answered by Cache_reply — the same verb pair serves the
   router's failover peer lookup and a respawned node's anti-entropy
   pull. Health_reply grew the replication counters (peer_hits,
   replicated in/out, queue lag, drops).

   v7: online membership. A monotonically versioned ring config (node
   list + replication factor + ring_version) rides the membership verbs:
   Ring_status fetches a node's current view, Ring_update pushes a newer
   config (join/leave/replication change), and Drain tells a node to
   shed new work, push every warm entry to its post-drain owners, and
   leave the ring — all answered by Ring_reply. Replicate and
   Cache_query now carry the sender's ring_version as an epoch fence: a
   mismatch (both sides versioned, numbers differ) is rejected with the
   new Stale_ring error tag before any state is applied, and the
   sender's recovery is a Ring_status refetch. Health_reply grew
   ring_version, the draining flag, and the replica-GC drop counter.

   Within v7 the Submit method bytes 0-2 (the boxed streaming, dfs and
   bcat kernels) were retired when the arena kernel became the only
   exact path. The frame layout did not change and every v7 peer already
   decodes Constraint_violation, so a retired byte is answered with that
   typed error rather than bumping the version; WAL records keyed under
   the old tags stay readable and simply age out of the LRU. *)
let version = 7

(* Caps the payload a peer can make us allocate; a 10M-reference trace
   encodes to ~50 MB, so this is generous without being unbounded. *)
let max_payload = 256 * 1024 * 1024

type query = Percents of int list | Budget of int

type method_spec = Exact of Analytical.method_ | Approx

type submission = Full of Trace.t | Sketched of Sketch.profile

(* The fleet view as one versioned value. Version 0 is reserved for the
   unfenced state (a standalone daemon with no peers); every published
   config is >= 1 and strictly increases on each membership change, so
   "newer" is a plain integer comparison. *)
type ring_config = { ring_version : int; nodes : string list; replication : int }

type request =
  | Submit of {
      name : string;
      trace : submission;
      query : query;
      method_ : method_spec;
      domains : int;
      max_level : int option;
      deadline : float option;
    }
  | Server_stats
  | Ping
  | Health
  | Replicate of { ring_version : int; records : string list }
  | Cache_query of { ring_version : int; keys : Result_cache.key list }
  | Ring_status
  | Ring_update of { config : ring_config }
  | Drain of { config : ring_config }

type server_stats = {
  jobs_completed : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  cache_evictions : int;
  coalesced_hits : int;
  pending : int;
  workers : int;
}

type worker_health = {
  slot : int;
  busy : bool;
  job : string;
  heartbeat_age : float;
  jobs_done : int;
}

type health = {
  node_id : string;
  start_epoch : float;
  uptime : float;
  workers : worker_health list;
  workers_replaced : int;
  queue_depth : int;
  queue_watermark : int;
  max_pending : int;
  shed : int;
  admission_rejected : int;
  jobs_completed : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  cache_evictions : int;
  coalesced_hits : int;
  wal_enabled : bool;
  wal_appends : int;
  wal_failures : int;
  peer_hits : int;
  replicated_in : int;
  replicated_out : int;
  replication_lag : int;
  replication_dropped : int;
  ring_version : int;
  draining : bool;
  replica_gc_dropped : int;
}

type outcome =
  | Table of Analytical_dse.table
  | Optimal of Optimizer.t
  | Approx_table of Approx_dse.table
  | Approx_optimal of Approx_dse.optimal

type result_payload = { outcome : outcome; cache_hit : bool }

type response =
  | Result of result_payload
  | Server_error of Dse_error.t
  | Stats_reply of server_stats
  | Pong
  | Health_reply of health
  | Replicate_ack of { stored : int }
  | Cache_reply of { keys : Result_cache.key list; records : string list }
  | Ring_reply of { config : ring_config; draining : bool; pushed : int }

let method_tag Analytical.Arena = 3

let method_spec_tag = function Exact m -> method_tag m | Approx -> 4

let submission_fingerprint = function
  | Full trace -> Trace.fingerprint trace
  | Sketched profile -> profile.Sketch.fingerprint

let submission_refs = function
  | Full trace -> Trace.length trace
  | Sketched profile -> profile.Sketch.n

let kind_tag = function Trace.Fetch -> 0 | Trace.Read -> 1 | Trace.Write -> 2

(* -- payload encoding -- *)

let add_varint buf v =
  if v < 0 then invalid_arg "Protocol: negative varint";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7F in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_list buf xs =
  add_varint buf (List.length xs);
  List.iter (add_varint buf) xs

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

(* Deadlines are the only non-integral wire field; IEEE-754 bits, LE. *)
let add_f64 buf v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done

let add_i64 buf bits =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done

(* Cache keys cross the wire for the replication verbs; the fingerprint
   is raw 8-byte LE (it is a full 64-bit hash, varint would inflate it)
   and max_level rides +1 so the "unbounded" sentinel (-1) stays a
   non-negative varint — the same layout as the WAL record header. *)
let add_cache_key buf (k : Result_cache.key) =
  add_i64 buf k.Result_cache.fingerprint;
  add_varint buf k.Result_cache.method_tag;
  add_varint buf k.Result_cache.domains;
  add_varint buf (k.Result_cache.max_level + 1)

let add_ring_config buf { ring_version; nodes; replication } =
  add_varint buf ring_version;
  add_varint buf replication;
  add_varint buf (List.length nodes);
  List.iter (add_string buf) nodes

let encode_query buf = function
  | Percents ps ->
    Buffer.add_char buf '\000';
    add_list buf ps
  | Budget k ->
    Buffer.add_char buf '\001';
    add_varint buf k

let encode_trace buf trace =
  add_varint buf (Trace.length trace);
  Trace.iter
    (fun (a : Trace.access) -> add_varint buf ((a.Trace.addr lsl 2) lor kind_tag a.Trace.kind))
    trace

let encode_request buf = function
  | Submit { name; trace; query; method_; domains; max_level; deadline } ->
    (* the record stream on the wire is the same whatever the method;
       only a decoder (the daemon) turns it into a sketch, so a profile
       is a decode-only representation with no encoding *)
    let trace =
      match trace with
      | Full trace -> trace
      | Sketched _ -> invalid_arg "Protocol: a sketched submission cannot be re-encoded"
    in
    add_string buf name;
    Buffer.add_char buf (Char.chr (method_spec_tag method_));
    add_varint buf domains;
    (match max_level with
    | None -> add_bool buf false
    | Some level ->
      add_bool buf true;
      add_varint buf level);
    (match deadline with
    | None -> add_bool buf false
    | Some seconds ->
      add_bool buf true;
      add_f64 buf seconds);
    encode_query buf query;
    encode_trace buf trace
  | Server_stats | Ping | Health | Ring_status -> ()
  | Replicate { ring_version; records } ->
    add_varint buf ring_version;
    add_varint buf (List.length records);
    List.iter (add_string buf) records
  | Cache_query { ring_version; keys } ->
    add_varint buf ring_version;
    add_varint buf (List.length keys);
    List.iter (add_cache_key buf) keys
  | Ring_update { config } -> add_ring_config buf config
  | Drain { config } -> add_ring_config buf config

let encode_error buf = function
  | Dse_error.Parse_error { file; line; message } ->
    Buffer.add_char buf '\000';
    add_string buf file;
    add_varint buf line;
    add_string buf message
  | Dse_error.Corrupt_binary { file; offset; message } ->
    Buffer.add_char buf '\001';
    add_string buf file;
    add_varint buf offset;
    add_string buf message
  | Dse_error.Constraint_violation { context; message } ->
    Buffer.add_char buf '\002';
    add_string buf context;
    add_string buf message
  | Dse_error.Shard_failure { shard; attempts; message } ->
    Buffer.add_char buf '\003';
    add_varint buf (max 0 shard);
    add_varint buf attempts;
    add_string buf message
  | Dse_error.Io_error { file; message } ->
    Buffer.add_char buf '\004';
    add_string buf file;
    add_string buf message
  | Dse_error.Queue_full { pending; max_pending; retry_after } ->
    Buffer.add_char buf '\005';
    add_varint buf pending;
    add_varint buf max_pending;
    add_f64 buf retry_after
  | Dse_error.Deadline_exceeded { elapsed; limit } ->
    Buffer.add_char buf '\006';
    add_f64 buf elapsed;
    add_f64 buf limit
  | Dse_error.Worker_stalled { elapsed; job } ->
    Buffer.add_char buf '\007';
    add_f64 buf elapsed;
    add_string buf job
  | Dse_error.Resource_exhausted { resource; needed; budget } ->
    Buffer.add_char buf '\008';
    add_string buf resource;
    add_varint buf needed;
    add_varint buf budget
  | Dse_error.Backend_unavailable { node; attempts } ->
    Buffer.add_char buf '\009';
    add_string buf node;
    add_varint buf attempts
  | Dse_error.Stale_ring { seen; expected } ->
    Buffer.add_char buf '\010';
    add_varint buf seen;
    add_varint buf expected

(* Approximate quantities cross the wire as raw IEEE-754 bits: a cached
   re-query must be bit-identical to the first answer, and any decimal
   round-trip would break that. *)
let add_bounds buf (b : Approx_dse.bounds) =
  add_f64 buf b.Approx_dse.est;
  add_f64 buf b.Approx_dse.lo;
  add_f64 buf b.Approx_dse.hi

let add_cell buf (c : Approx_dse.cell) =
  add_varint buf c.Approx_dse.assoc;
  add_varint buf c.Approx_dse.assoc_lo;
  add_varint buf c.Approx_dse.assoc_hi

let encode_stats buf (s : Stats.t) =
  add_varint buf s.Stats.n;
  add_varint buf s.Stats.n_unique;
  add_varint buf s.Stats.address_bits;
  add_varint buf s.Stats.max_misses

let encode_outcome buf = function
  | Table (t : Analytical_dse.table) ->
    Buffer.add_char buf '\000';
    add_string buf t.Analytical_dse.name;
    encode_stats buf t.Analytical_dse.stats;
    add_list buf t.Analytical_dse.percents;
    add_list buf t.Analytical_dse.budgets;
    add_varint buf (List.length t.Analytical_dse.rows);
    List.iter
      (fun (depth, assocs) ->
        add_varint buf depth;
        add_list buf assocs)
      t.Analytical_dse.rows
  | Optimal (r : Optimizer.t) ->
    Buffer.add_char buf '\001';
    add_varint buf r.Optimizer.k;
    add_varint buf (Array.length r.Optimizer.levels);
    Array.iter
      (fun (l : Optimizer.level_result) ->
        add_varint buf l.Optimizer.level;
        add_varint buf l.Optimizer.depth;
        add_varint buf l.Optimizer.min_associativity;
        add_varint buf l.Optimizer.misses;
        add_varint buf l.Optimizer.zero_miss_associativity)
      r.Optimizer.levels
  | Approx_table (t : Approx_dse.table) ->
    Buffer.add_char buf '\002';
    add_string buf t.Approx_dse.name;
    add_varint buf t.Approx_dse.n;
    add_bounds buf t.Approx_dse.distinct;
    add_bounds buf t.Approx_dse.max_misses;
    add_f64 buf t.Approx_dse.alpha;
    add_f64 buf t.Approx_dse.fit_r2;
    add_varint buf t.Approx_dse.address_bits;
    add_list buf t.Approx_dse.percents;
    add_list buf t.Approx_dse.budgets;
    add_varint buf (List.length t.Approx_dse.rows);
    List.iter
      (fun (depth, cells) ->
        add_varint buf depth;
        add_varint buf (List.length cells);
        List.iter (add_cell buf) cells)
      t.Approx_dse.rows
  | Approx_optimal (r : Approx_dse.optimal) ->
    Buffer.add_char buf '\003';
    add_varint buf r.Approx_dse.k;
    add_varint buf (List.length r.Approx_dse.levels);
    List.iter
      (fun (l : Approx_dse.level_estimate) ->
        add_varint buf l.Approx_dse.level;
        add_varint buf l.Approx_dse.depth;
        add_cell buf l.Approx_dse.cell;
        add_bounds buf l.Approx_dse.misses)
      r.Approx_dse.levels

let encode_response buf = function
  | Result { outcome; cache_hit } ->
    add_bool buf cache_hit;
    encode_outcome buf outcome
  | Server_error e -> encode_error buf e
  | Stats_reply s ->
    add_varint buf s.jobs_completed;
    add_varint buf s.cache_hits;
    add_varint buf s.cache_misses;
    add_varint buf s.cache_entries;
    add_varint buf s.cache_evictions;
    add_varint buf s.coalesced_hits;
    add_varint buf s.pending;
    add_varint buf s.workers
  | Pong -> ()
  | Replicate_ack { stored } -> add_varint buf stored
  | Cache_reply { keys; records } ->
    add_varint buf (List.length keys);
    List.iter (add_cache_key buf) keys;
    add_varint buf (List.length records);
    List.iter (add_string buf) records
  | Ring_reply { config; draining; pushed } ->
    add_ring_config buf config;
    add_bool buf draining;
    add_varint buf pushed
  | Health_reply h ->
    add_string buf h.node_id;
    add_f64 buf h.start_epoch;
    add_f64 buf h.uptime;
    add_varint buf (List.length h.workers);
    List.iter
      (fun w ->
        add_varint buf w.slot;
        add_bool buf w.busy;
        add_string buf w.job;
        add_f64 buf w.heartbeat_age;
        add_varint buf w.jobs_done)
      h.workers;
    add_varint buf h.workers_replaced;
    add_varint buf h.queue_depth;
    add_varint buf h.queue_watermark;
    add_varint buf h.max_pending;
    add_varint buf h.shed;
    add_varint buf h.admission_rejected;
    add_varint buf h.jobs_completed;
    add_varint buf h.cache_hits;
    add_varint buf h.cache_misses;
    add_varint buf h.cache_entries;
    add_varint buf h.cache_evictions;
    add_varint buf h.coalesced_hits;
    add_bool buf h.wal_enabled;
    add_varint buf h.wal_appends;
    add_varint buf h.wal_failures;
    add_varint buf h.peer_hits;
    add_varint buf h.replicated_in;
    add_varint buf h.replicated_out;
    add_varint buf h.replication_lag;
    add_varint buf h.replication_dropped;
    add_varint buf h.ring_version;
    add_bool buf h.draining;
    add_varint buf h.replica_gc_dropped

(* -- payload decoding -- *)

(* Byte offset within the frame payload + what was wrong. *)
exception Malformed of int * string

(* The peer closed before sending a single byte — a liveness probe or
   an abandoned connect, not damage. *)
exception Clean_close

type cursor = { data : string; mutable pos : int }

let remaining c = String.length c.data - c.pos

let byte c =
  if c.pos >= String.length c.data then raise (Malformed (c.pos, "unexpected end of payload"));
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let varint c =
  let start = c.pos in
  let rec loop shift acc =
    if shift > 56 then raise (Malformed (start, "varint wider than 63 bits"))
    else
      let b = byte c in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if acc < 0 then raise (Malformed (start, "varint overflows the address space"))
      else if b land 0x80 = 0 then acc
      else loop (shift + 7) acc
  in
  loop 0 0

let string_field c =
  let n = varint c in
  if n > remaining c then raise (Malformed (c.pos, "declared string length exceeds the payload"));
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let bool_field c =
  match byte c with
  | 0 -> false
  | 1 -> true
  | b -> raise (Malformed (c.pos - 1, Printf.sprintf "bad boolean byte %d" b))

let f64_field c =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte c)) (8 * i))
  done;
  Int64.float_of_bits !bits

let int_list c =
  let n = varint c in
  (* each element is at least one byte *)
  if n > remaining c then raise (Malformed (c.pos, "declared list length exceeds the payload"));
  List.init n (fun _ -> varint c)

let i64_field c =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte c)) (8 * i))
  done;
  !bits

let cache_key_field c : Result_cache.key =
  let fingerprint = i64_field c in
  let method_tag = varint c in
  let domains = varint c in
  let max_level = varint c - 1 in
  { Result_cache.fingerprint; method_tag; domains; max_level }

let cache_key_list c =
  let n = varint c in
  (* each key is at least eleven bytes *)
  if n > remaining c then raise (Malformed (c.pos, "declared key count exceeds the payload"));
  List.init n (fun _ -> cache_key_field c)

let string_list c =
  let n = varint c in
  if n > remaining c then raise (Malformed (c.pos, "declared record count exceeds the payload"));
  List.init n (fun _ -> string_field c)

let ring_config_field c =
  let ring_version = varint c in
  let replication = varint c in
  let n = varint c in
  (* each node name is at least one byte of length prefix *)
  if n > remaining c then raise (Malformed (c.pos, "declared node count exceeds the payload"));
  let nodes = List.init n (fun _ -> string_field c) in
  { ring_version; nodes; replication }

let method_field c =
  match byte c with
  | 3 -> Exact Analytical.Arena
  | 4 -> Approx
  | 0 | 1 | 2 ->
    let message = "method retired; use arena" in
    Dse_error.fail (Dse_error.Constraint_violation { context = "submit"; message })
  | b -> raise (Malformed (c.pos - 1, Printf.sprintf "unknown method tag %d" b))

let query_field c =
  match byte c with
  | 0 -> Percents (int_list c)
  | 1 -> Budget (varint c)
  | b -> raise (Malformed (c.pos - 1, Printf.sprintf "unknown query tag %d" b))

(* Admission control runs on the declared count alone — before the
   corruption check, before any allocation — so an oversized job is
   rejected while it is still a varint and a string of frame bytes,
   never having cost the daemon its decoded footprint. The submission's
   method was decoded before the trace, so an exact job is judged by the
   arena model (100 B/ref) and an approx job by the sketch's fixed
   footprint — reference count does not enter its price at all, which
   is what lets a budget that rejects a 100M-reference exact job admit
   the same trace approximately. *)
let admit ?max_job_refs ?memory_budget ~method_ declared =
  let model = match method_ with Exact Analytical.Arena -> `Arena | Approx -> `Sketch in
  (match max_job_refs with
  | Some budget when declared > budget ->
    Dse_error.fail
      (Dse_error.Resource_exhausted { resource = "trace references"; needed = declared; budget })
  | _ -> ());
  match memory_budget with
  | Some budget when Trace.estimate_bytes ~model ~refs:declared > budget ->
    Dse_error.fail
      (Dse_error.Resource_exhausted
         { resource = "estimated bytes";
           needed = Trace.estimate_bytes ~model ~refs:declared;
           budget })
  | _ -> ()

let decode_record c =
  let start = c.pos in
  let record = varint c in
  let kind =
    match record land 3 with
    | 0 -> Trace.Fetch
    | 1 -> Trace.Read
    | 2 -> Trace.Write
    | _ -> raise (Malformed (start, "bad kind tag 3"))
  in
  (record lsr 2, kind)

let trace_field ?max_job_refs ?memory_budget ~method_ c =
  let declared = varint c in
  admit ?max_job_refs ?memory_budget ~method_ declared;
  (* each record is at least one byte, so a declared count beyond the
     remaining payload is corruption — caught before allocation *)
  if declared > remaining c then
    raise (Malformed (c.pos, "declared trace length exceeds the payload"));
  let trace = Trace.create ~capacity:(max 1 declared) () in
  for _ = 1 to declared do
    let addr, kind = decode_record c in
    Trace.add trace ~addr ~kind
  done;
  trace

(* The approx decode path: the same record stream, fed straight into
   the streaming sketch. No Trace.t — the daemon's peak per-job heap
   for an approx submission is the sketch state, whatever the declared
   length, matching the [`Sketch] admission price. The profile's
   fingerprint is computed by the sketch over the same stream, so an
   approx job lands on the same cache identity as an exact one. *)
let sketch_field ?max_job_refs ?memory_budget ~method_ c =
  let declared = varint c in
  admit ?max_job_refs ?memory_budget ~method_ declared;
  if declared > remaining c then
    raise (Malformed (c.pos, "declared trace length exceeds the payload"));
  let sketch = Sketch.create () in
  for _ = 1 to declared do
    let addr, kind = decode_record c in
    Sketch.add sketch ~addr ~kind
  done;
  Sketch.finalize sketch

let decode_submit ?max_job_refs ?memory_budget ?(sketch_approx = false) c =
  let name = string_field c in
  let method_ = method_field c in
  let domains = varint c in
  let max_level = if bool_field c then Some (varint c) else None in
  let deadline = if bool_field c then Some (f64_field c) else None in
  let query = query_field c in
  let trace =
    match (method_, sketch_approx) with
    | Approx, true -> Sketched (sketch_field ?max_job_refs ?memory_budget ~method_ c)
    | _ -> Full (trace_field ?max_job_refs ?memory_budget ~method_ c)
  in
  Submit { name; trace; query; method_; domains; max_level; deadline }

let decode_error c =
  match byte c with
  | 0 ->
    let file = string_field c in
    let line = varint c in
    let message = string_field c in
    Dse_error.Parse_error { file; line; message }
  | 1 ->
    let file = string_field c in
    let offset = varint c in
    let message = string_field c in
    Dse_error.Corrupt_binary { file; offset; message }
  | 2 ->
    let context = string_field c in
    let message = string_field c in
    Dse_error.Constraint_violation { context; message }
  | 3 ->
    let shard = varint c in
    let attempts = varint c in
    let message = string_field c in
    Dse_error.Shard_failure { shard; attempts; message }
  | 4 ->
    let file = string_field c in
    let message = string_field c in
    Dse_error.Io_error { file; message }
  | 5 ->
    let pending = varint c in
    let max_pending = varint c in
    let retry_after = f64_field c in
    Dse_error.Queue_full { pending; max_pending; retry_after }
  | 6 ->
    let elapsed = f64_field c in
    let limit = f64_field c in
    Dse_error.Deadline_exceeded { elapsed; limit }
  | 7 ->
    let elapsed = f64_field c in
    let job = string_field c in
    Dse_error.Worker_stalled { elapsed; job }
  | 8 ->
    let resource = string_field c in
    let needed = varint c in
    let budget = varint c in
    Dse_error.Resource_exhausted { resource; needed; budget }
  | 9 ->
    let node = string_field c in
    let attempts = varint c in
    Dse_error.Backend_unavailable { node; attempts }
  | 10 ->
    let seen = varint c in
    let expected = varint c in
    Dse_error.Stale_ring { seen; expected }
  | b -> raise (Malformed (c.pos - 1, Printf.sprintf "unknown error tag %d" b))

let decode_stats c =
  let n = varint c in
  let n_unique = varint c in
  let address_bits = varint c in
  let max_misses = varint c in
  { Stats.n; n_unique; address_bits; max_misses }

let bounds_field c =
  let est = f64_field c in
  let lo = f64_field c in
  let hi = f64_field c in
  { Approx_dse.est; lo; hi }

let cell_field c =
  let assoc = varint c in
  let assoc_lo = varint c in
  let assoc_hi = varint c in
  { Approx_dse.assoc; assoc_lo; assoc_hi }

let decode_outcome c =
  match byte c with
  | 0 ->
    let name = string_field c in
    let stats = decode_stats c in
    let percents = int_list c in
    let budgets = int_list c in
    let row_count = varint c in
    if row_count > remaining c then
      raise (Malformed (c.pos, "declared row count exceeds the payload"));
    let rows =
      List.init row_count (fun _ ->
          let depth = varint c in
          let assocs = int_list c in
          (depth, assocs))
    in
    Table { Analytical_dse.name; stats; percents; budgets; rows }
  | 1 ->
    let k = varint c in
    let level_count = varint c in
    if level_count > remaining c then
      raise (Malformed (c.pos, "declared level count exceeds the payload"));
    let levels =
      Array.init level_count (fun _ ->
          let level = varint c in
          let depth = varint c in
          let min_associativity = varint c in
          let misses = varint c in
          let zero_miss_associativity = varint c in
          { Optimizer.level; depth; min_associativity; misses; zero_miss_associativity })
    in
    Optimal { Optimizer.k; levels }
  | 2 ->
    let name = string_field c in
    let n = varint c in
    let distinct = bounds_field c in
    let max_misses = bounds_field c in
    let alpha = f64_field c in
    let fit_r2 = f64_field c in
    let address_bits = varint c in
    let percents = int_list c in
    let budgets = int_list c in
    let row_count = varint c in
    if row_count > remaining c then
      raise (Malformed (c.pos, "declared row count exceeds the payload"));
    let rows =
      List.init row_count (fun _ ->
          let depth = varint c in
          let cell_count = varint c in
          if cell_count > remaining c then
            raise (Malformed (c.pos, "declared cell count exceeds the payload"));
          (depth, List.init cell_count (fun _ -> cell_field c)))
    in
    Approx_table
      { Approx_dse.name; n; distinct; max_misses; alpha; fit_r2; address_bits; percents;
        budgets; rows }
  | 3 ->
    let k = varint c in
    let level_count = varint c in
    if level_count > remaining c then
      raise (Malformed (c.pos, "declared level count exceeds the payload"));
    let levels =
      List.init level_count (fun _ ->
          let level = varint c in
          let depth = varint c in
          let cell = cell_field c in
          let misses = bounds_field c in
          { Approx_dse.level; depth; cell; misses })
    in
    Approx_optimal { Approx_dse.k; levels }
  | b -> raise (Malformed (c.pos - 1, Printf.sprintf "unknown outcome tag %d" b))

let decode_server_stats c =
  let jobs_completed = varint c in
  let cache_hits = varint c in
  let cache_misses = varint c in
  let cache_entries = varint c in
  let cache_evictions = varint c in
  let coalesced_hits = varint c in
  let pending = varint c in
  let workers = varint c in
  { jobs_completed; cache_hits; cache_misses; cache_entries; cache_evictions;
    coalesced_hits; pending; workers }

let decode_health c =
  let node_id = string_field c in
  let start_epoch = f64_field c in
  let uptime = f64_field c in
  let worker_count = varint c in
  (* each worker record is at least four bytes *)
  if worker_count > remaining c then
    raise (Malformed (c.pos, "declared worker count exceeds the payload"));
  let workers =
    List.init worker_count (fun _ ->
        let slot = varint c in
        let busy = bool_field c in
        let job = string_field c in
        let heartbeat_age = f64_field c in
        let jobs_done = varint c in
        { slot; busy; job; heartbeat_age; jobs_done })
  in
  let workers_replaced = varint c in
  let queue_depth = varint c in
  let queue_watermark = varint c in
  let max_pending = varint c in
  let shed = varint c in
  let admission_rejected = varint c in
  let jobs_completed = varint c in
  let cache_hits = varint c in
  let cache_misses = varint c in
  let cache_entries = varint c in
  let cache_evictions = varint c in
  let coalesced_hits = varint c in
  let wal_enabled = bool_field c in
  let wal_appends = varint c in
  let wal_failures = varint c in
  let peer_hits = varint c in
  let replicated_in = varint c in
  let replicated_out = varint c in
  let replication_lag = varint c in
  let replication_dropped = varint c in
  let ring_version = varint c in
  let draining = bool_field c in
  let replica_gc_dropped = varint c in
  {
    node_id;
    start_epoch;
    uptime;
    workers;
    workers_replaced;
    queue_depth;
    queue_watermark;
    max_pending;
    shed;
    admission_rejected;
    jobs_completed;
    cache_hits;
    cache_misses;
    cache_entries;
    cache_evictions;
    coalesced_hits;
    wal_enabled;
    wal_appends;
    wal_failures;
    peer_hits;
    replicated_in;
    replicated_out;
    replication_lag;
    replication_dropped;
    ring_version;
    draining;
    replica_gc_dropped;
  }

(* -- framing over a file descriptor -- *)

let tag_submit = 1

let tag_server_stats = 2

let tag_ping = 3

let tag_health = 4

let tag_replicate = 5

let tag_cache_query = 6

let tag_ring_status = 7

let tag_ring_update = 8

let tag_drain = 9

let tag_result = 0x81

let tag_error = 0x82

let tag_stats_reply = 0x83

let tag_pong = 0x84

let tag_health_reply = 0x85

let tag_replicate_ack = 0x86

let tag_cache_reply = 0x87

let tag_ring_reply = 0x88

let send_frame fd ~tag payload =
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr tag);
  add_varint buf (String.length payload);
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  let crc = Crc32.digest_string body in
  let frame = Bytes.create (String.length body + 4) in
  Bytes.blit_string body 0 frame 0 (String.length body);
  for i = 0 to 3 do
    Bytes.set frame (String.length body + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Transport.write_all fd frame

type wire_reader = { fd : Unix.file_descr; mutable pos : int; mutable crc : int }

let reader_byte r =
  let b = Bytes.create 1 in
  match Transport.read_some r.fd b 0 1 with
  | 0 -> if r.pos = 0 then raise Clean_close else raise (Malformed (r.pos, "unexpected end of stream"))
  | _ ->
    let v = Char.code (Bytes.get b 0) in
    r.pos <- r.pos + 1;
    r.crc <- Crc32.update_byte r.crc v;
    v

let reader_exact r n =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    match Transport.read_some r.fd b !off (n - !off) with
    | 0 -> raise (Malformed (r.pos + !off, "unexpected end of stream"))
    | k -> off := !off + k
  done;
  r.pos <- r.pos + n;
  let s = Bytes.unsafe_to_string b in
  r.crc <- Crc32.update_string r.crc s;
  s

let reader_varint r =
  let start = r.pos in
  let rec loop shift acc =
    if shift > 56 then raise (Malformed (start, "varint wider than 63 bits"))
    else
      let b = reader_byte r in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if acc < 0 then raise (Malformed (start, "varint overflows the address space"))
      else if b land 0x80 = 0 then acc
      else loop (shift + 7) acc
  in
  loop 0 0

let read_frame fd =
  let r = { fd; pos = 0; crc = Crc32.init } in
  String.iter
    (fun expected ->
      let b = reader_byte r in
      if Char.chr b <> expected then raise (Malformed (r.pos - 1, "bad magic")))
    magic;
  let v = reader_byte r in
  if v <> version then
    raise (Malformed (4, Printf.sprintf "unsupported protocol version %d" v));
  let tag = reader_byte r in
  let len = reader_varint r in
  if len > max_payload then
    raise (Malformed (r.pos, Printf.sprintf "payload of %d bytes exceeds the %d limit" len max_payload));
  let payload = reader_exact r len in
  let computed = Crc32.finalize r.crc in
  (* the footer is over everything before it, so it is not folded in *)
  let footer = Bytes.create 4 in
  let off = ref 0 in
  while !off < 4 do
    match Transport.read_some r.fd footer !off (4 - !off) with
    | 0 -> raise (Malformed (r.pos + !off, "truncated CRC footer"))
    | k -> off := !off + k
  done;
  let stored = ref 0 in
  for i = 0 to 3 do
    stored := !stored lor (Char.code (Bytes.get footer i) lsl (8 * i))
  done;
  if !stored <> computed then
    raise
      (Malformed (r.pos, Printf.sprintf "CRC mismatch (stored %08x, computed %08x)" !stored computed));
  (tag, payload)

(* -- public API: every wire failure is a typed [Dse_error.t] -- *)

let corrupt ~peer offset message = Dse_error.Corrupt_binary { file = peer; offset; message }

let io_failure ~peer err = Dse_error.Io_error { file = peer; message = Unix.error_message err }

let timeout_message = "client timed out"

(* SO_RCVTIMEO / SO_SNDTIMEO expiry surfaces as EAGAIN (or
   EWOULDBLOCK); mapped to a recognisable typed error so the daemon can
   log-and-close a stalled peer instead of attempting a reply that
   would itself block for the send-timeout. *)
let guard ~peer ?(timeout = "timed out") f =
  match f () with
  | v -> Ok v
  | exception Malformed (offset, message) -> Error (corrupt ~peer offset message)
  | exception Dse_error.Error e ->
    (* admission control rejecting a declared size mid-decode *)
    Error e
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Error (Dse_error.Io_error { file = peer; message = timeout })
  | exception Unix.Unix_error (err, _, _) -> Error (io_failure ~peer err)

let timed_out = function
  | Dse_error.Io_error { message; _ } -> message = timeout_message
  | _ -> false

let write_request ?(peer = "<server>") fd request =
  guard ~peer (fun () ->
      let buf = Buffer.create 1024 in
      encode_request buf request;
      let tag =
        match request with
        | Submit _ -> tag_submit
        | Server_stats -> tag_server_stats
        | Ping -> tag_ping
        | Health -> tag_health
        | Replicate _ -> tag_replicate
        | Cache_query _ -> tag_cache_query
        | Ring_status -> tag_ring_status
        | Ring_update _ -> tag_ring_update
        | Drain _ -> tag_drain
      in
      send_frame fd ~tag (Buffer.contents buf))

let write_response ?(peer = "<client>") fd response =
  guard ~peer ~timeout:timeout_message (fun () ->
      let buf = Buffer.create 1024 in
      encode_response buf response;
      let tag =
        match response with
        | Result _ -> tag_result
        | Server_error _ -> tag_error
        | Stats_reply _ -> tag_stats_reply
        | Pong -> tag_pong
        | Health_reply _ -> tag_health_reply
        | Replicate_ack _ -> tag_replicate_ack
        | Cache_reply _ -> tag_cache_reply
        | Ring_reply _ -> tag_ring_reply
      in
      send_frame fd ~tag (Buffer.contents buf))

let read_request ?(peer = "<client>") ?max_job_refs ?memory_budget ?sketch_approx fd =
  guard ~peer ~timeout:timeout_message (fun () ->
      match read_frame fd with
      | exception Clean_close -> None
      | tag, payload ->
        let c = { data = payload; pos = 0 } in
        let request =
          if tag = tag_submit then decode_submit ?max_job_refs ?memory_budget ?sketch_approx c
          else if tag = tag_server_stats then Server_stats
          else if tag = tag_ping then Ping
          else if tag = tag_health then Health
          else if tag = tag_replicate then begin
            let ring_version = varint c in
            Replicate { ring_version; records = string_list c }
          end
          else if tag = tag_cache_query then begin
            let ring_version = varint c in
            Cache_query { ring_version; keys = cache_key_list c }
          end
          else if tag = tag_ring_status then Ring_status
          else if tag = tag_ring_update then Ring_update { config = ring_config_field c }
          else if tag = tag_drain then Drain { config = ring_config_field c }
          else raise (Malformed (5, Printf.sprintf "unknown request tag %d" tag))
        in
        if remaining c > 0 then raise (Malformed (c.pos, "trailing bytes after the request"));
        Some request)

let read_response ?(peer = "<server>") fd =
  guard ~peer (fun () ->
      let tag, payload =
        (* The server closing without answering is a transport fault on
           this side of the wire, unlike a client probe — and it is
           [Io_error], not [Corrupt_binary]: a daemon killed between
           accept and reply (restart, kill -9) looks exactly like this,
           and the client retry loop must treat it like a refused
           connection, not like damaged data. *)
        try read_frame fd
        with Clean_close ->
          Dse_error.fail
            (Dse_error.Io_error { file = peer; message = "connection closed without a response" })
      in
      let c = { data = payload; pos = 0 } in
      let response =
        if tag = tag_result then begin
          let cache_hit = bool_field c in
          let outcome = decode_outcome c in
          Result { outcome; cache_hit }
        end
        else if tag = tag_error then Server_error (decode_error c)
        else if tag = tag_stats_reply then Stats_reply (decode_server_stats c)
        else if tag = tag_pong then Pong
        else if tag = tag_health_reply then Health_reply (decode_health c)
        else if tag = tag_replicate_ack then Replicate_ack { stored = varint c }
        else if tag = tag_cache_reply then begin
          let keys = cache_key_list c in
          let records = string_list c in
          Cache_reply { keys; records }
        end
        else if tag = tag_ring_reply then begin
          let config = ring_config_field c in
          let draining = bool_field c in
          let pushed = varint c in
          Ring_reply { config; draining; pushed }
        end
        else raise (Malformed (5, Printf.sprintf "unknown response tag %d" tag))
      in
      if remaining c > 0 then raise (Malformed (c.pos, "trailing bytes after the response"));
      response)

(* An exact entry answers any query straight from its histograms; an
   approx entry re-runs the O(ms) estimator over the cached profile.
   The estimator is deterministic in the profile, so a cached re-query
   produces bit-identical floats to the first answer — which is also
   what makes a replicated entry interchangeable with the original:
   whoever holds the entry (the computing node, a ring successor, the
   router relaying a peer's copy) derives the same outcome. [max_level]
   only matters for approx (exact histograms were already bounded at
   prepare time); it rides in the cache key, so every holder of the
   entry shares it. *)
let answer_entry ~name ~query ~max_level (entry : Result_cache.entry) =
  match entry with
  | Result_cache.Exact { stats; histograms } -> (
    match query with
    | Percents percents -> Table (Analytical_dse.of_histograms ~percents ~name ~stats histograms)
    | Budget k -> Optimal (Optimizer.of_histograms ~k histograms))
  | Result_cache.Approx profile -> (
    let prepared = Approx_dse.prepare profile in
    match query with
    | Percents percents -> Approx_table (Approx_dse.table ~percents ?max_level ~name prepared)
    | Budget k -> Approx_optimal (Approx_dse.optimal ?max_level ~k prepared))
