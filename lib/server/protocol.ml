(* Frames are the [Wire] envelope with magic "DSRV" and a tag byte;
   payload fields are Wire varints, length-prefixed strings, 8-byte LE
   IEEE-754 bits and trace records. Any framing damage surfaces as a
   typed [Dse_error.Corrupt_binary] with the byte offset, never a raw
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
   the old tags stay readable and simply age out of the LRU. Request tag
   2 (Server_stats, whose every counter Health_reply also carries) and
   its 0x83 reply were retired the same way: tag 2 is answered with a
   typed Constraint_violation. *)
let version = 7

let max_payload = Wire.max_payload

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
  | Ping
  | Health
  | Replicate of { ring_version : int; records : string list }
  | Cache_query of { ring_version : int; keys : Result_cache.key list }
  | Ring_status
  | Ring_update of { config : ring_config }
  | Drain of { config : ring_config }

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

(* -- payload encoding -- *)

let add_list buf xs = Wire.put_list buf Wire.put_varint xs

let add_bool buf b = Wire.put_byte buf (if b then 1 else 0)

(* Deadlines, error-bar estimates and health ages are the only
   non-integral wire fields: IEEE-754 bits in the 8-byte LE field. *)
let add_f64 buf v = Wire.put_i64 buf (Int64.bits_of_float v)

let add_ring_config buf { ring_version; nodes; replication } =
  Wire.put_varint buf ring_version;
  Wire.put_varint buf replication;
  Wire.put_list buf Wire.put_string nodes

let encode_query buf = function
  | Percents ps ->
    Wire.put_byte buf 0;
    add_list buf ps
  | Budget k ->
    Wire.put_byte buf 1;
    Wire.put_varint buf k

let encode_trace buf trace =
  Wire.put_varint buf (Trace.length trace);
  Trace.iter_records (Wire.put_record buf) trace

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
    Wire.put_string buf name;
    Wire.put_byte buf (method_spec_tag method_);
    Wire.put_varint buf domains;
    (match max_level with
    | None -> add_bool buf false
    | Some level ->
      add_bool buf true;
      Wire.put_varint buf level);
    (match deadline with
    | None -> add_bool buf false
    | Some seconds ->
      add_bool buf true;
      add_f64 buf seconds);
    encode_query buf query;
    encode_trace buf trace
  | Ping | Health | Ring_status -> ()
  | Replicate { ring_version; records } ->
    Wire.put_varint buf ring_version;
    Wire.put_list buf Wire.put_string records
  | Cache_query { ring_version; keys } ->
    Wire.put_varint buf ring_version;
    Wire.put_list buf Result_cache.write_key keys
  | Ring_update { config } -> add_ring_config buf config
  | Drain { config } -> add_ring_config buf config

let encode_error buf = function
  | Dse_error.Parse_error { file; line; message } ->
    Wire.put_byte buf 0;
    Wire.put_string buf file;
    Wire.put_varint buf line;
    Wire.put_string buf message
  | Dse_error.Corrupt_binary { file; offset; message } ->
    Wire.put_byte buf 1;
    Wire.put_string buf file;
    Wire.put_varint buf offset;
    Wire.put_string buf message
  | Dse_error.Constraint_violation { context; message } ->
    Wire.put_byte buf 2;
    Wire.put_string buf context;
    Wire.put_string buf message
  | Dse_error.Shard_failure { shard; attempts; message } ->
    Wire.put_byte buf 3;
    Wire.put_varint buf (max 0 shard);
    Wire.put_varint buf attempts;
    Wire.put_string buf message
  | Dse_error.Io_error { file; message } ->
    Wire.put_byte buf 4;
    Wire.put_string buf file;
    Wire.put_string buf message
  | Dse_error.Queue_full { pending; max_pending; retry_after } ->
    Wire.put_byte buf 5;
    Wire.put_varint buf pending;
    Wire.put_varint buf max_pending;
    add_f64 buf retry_after
  | Dse_error.Deadline_exceeded { elapsed; limit } ->
    Wire.put_byte buf 6;
    add_f64 buf elapsed;
    add_f64 buf limit
  | Dse_error.Worker_stalled { elapsed; job } ->
    Wire.put_byte buf 7;
    add_f64 buf elapsed;
    Wire.put_string buf job
  | Dse_error.Resource_exhausted { resource; needed; budget } ->
    Wire.put_byte buf 8;
    Wire.put_string buf resource;
    Wire.put_varint buf needed;
    Wire.put_varint buf budget
  | Dse_error.Backend_unavailable { node; attempts } ->
    Wire.put_byte buf 9;
    Wire.put_string buf node;
    Wire.put_varint buf attempts
  | Dse_error.Stale_ring { seen; expected } ->
    Wire.put_byte buf 10;
    Wire.put_varint buf seen;
    Wire.put_varint buf expected

(* Approximate quantities cross the wire as raw IEEE-754 bits: a cached
   re-query must be bit-identical to the first answer, and any decimal
   round-trip would break that. *)
let add_bounds buf (b : Approx_dse.bounds) =
  add_f64 buf b.Approx_dse.est;
  add_f64 buf b.Approx_dse.lo;
  add_f64 buf b.Approx_dse.hi

let add_cell buf (c : Approx_dse.cell) =
  Wire.put_varint buf c.Approx_dse.assoc;
  Wire.put_varint buf c.Approx_dse.assoc_lo;
  Wire.put_varint buf c.Approx_dse.assoc_hi

let encode_outcome buf = function
  | Table (t : Analytical_dse.table) ->
    Wire.put_byte buf 0;
    Wire.put_string buf t.Analytical_dse.name;
    Result_cache.write_stats buf t.Analytical_dse.stats;
    add_list buf t.Analytical_dse.percents;
    add_list buf t.Analytical_dse.budgets;
    Wire.put_list buf
      (fun buf (depth, assocs) ->
        Wire.put_varint buf depth;
        add_list buf assocs)
      t.Analytical_dse.rows
  | Optimal (r : Optimizer.t) ->
    Wire.put_byte buf 1;
    Wire.put_varint buf r.Optimizer.k;
    Wire.put_varint buf (Array.length r.Optimizer.levels);
    Array.iter
      (fun (l : Optimizer.level_result) ->
        Wire.put_varint buf l.Optimizer.level;
        Wire.put_varint buf l.Optimizer.depth;
        Wire.put_varint buf l.Optimizer.min_associativity;
        Wire.put_varint buf l.Optimizer.misses;
        Wire.put_varint buf l.Optimizer.zero_miss_associativity)
      r.Optimizer.levels
  | Approx_table (t : Approx_dse.table) ->
    Wire.put_byte buf 2;
    Wire.put_string buf t.Approx_dse.name;
    Wire.put_varint buf t.Approx_dse.n;
    add_bounds buf t.Approx_dse.distinct;
    add_bounds buf t.Approx_dse.max_misses;
    add_f64 buf t.Approx_dse.alpha;
    add_f64 buf t.Approx_dse.fit_r2;
    Wire.put_varint buf t.Approx_dse.address_bits;
    add_list buf t.Approx_dse.percents;
    add_list buf t.Approx_dse.budgets;
    Wire.put_list buf
      (fun buf (depth, cells) ->
        Wire.put_varint buf depth;
        Wire.put_list buf add_cell cells)
      t.Approx_dse.rows
  | Approx_optimal (r : Approx_dse.optimal) ->
    Wire.put_byte buf 3;
    Wire.put_varint buf r.Approx_dse.k;
    Wire.put_list buf
      (fun buf (l : Approx_dse.level_estimate) ->
        Wire.put_varint buf l.Approx_dse.level;
        Wire.put_varint buf l.Approx_dse.depth;
        add_cell buf l.Approx_dse.cell;
        add_bounds buf l.Approx_dse.misses)
      r.Approx_dse.levels

let encode_response buf = function
  | Result { outcome; cache_hit } ->
    add_bool buf cache_hit;
    encode_outcome buf outcome
  | Server_error e -> encode_error buf e
  | Pong -> ()
  | Replicate_ack { stored } -> Wire.put_varint buf stored
  | Cache_reply { keys; records } ->
    Wire.put_list buf Result_cache.write_key keys;
    Wire.put_list buf Wire.put_string records
  | Ring_reply { config; draining; pushed } ->
    add_ring_config buf config;
    add_bool buf draining;
    Wire.put_varint buf pushed
  | Health_reply h ->
    Wire.put_string buf h.node_id;
    add_f64 buf h.start_epoch;
    add_f64 buf h.uptime;
    Wire.put_list buf
      (fun buf w ->
        Wire.put_varint buf w.slot;
        add_bool buf w.busy;
        Wire.put_string buf w.job;
        add_f64 buf w.heartbeat_age;
        Wire.put_varint buf w.jobs_done)
      h.workers;
    Wire.put_varint buf h.workers_replaced;
    Wire.put_varint buf h.queue_depth;
    Wire.put_varint buf h.queue_watermark;
    Wire.put_varint buf h.max_pending;
    Wire.put_varint buf h.shed;
    Wire.put_varint buf h.admission_rejected;
    Wire.put_varint buf h.jobs_completed;
    Wire.put_varint buf h.cache_hits;
    Wire.put_varint buf h.cache_misses;
    Wire.put_varint buf h.cache_entries;
    Wire.put_varint buf h.cache_evictions;
    Wire.put_varint buf h.coalesced_hits;
    add_bool buf h.wal_enabled;
    Wire.put_varint buf h.wal_appends;
    Wire.put_varint buf h.wal_failures;
    Wire.put_varint buf h.peer_hits;
    Wire.put_varint buf h.replicated_in;
    Wire.put_varint buf h.replicated_out;
    Wire.put_varint buf h.replication_lag;
    Wire.put_varint buf h.replication_dropped;
    Wire.put_varint buf h.ring_version;
    add_bool buf h.draining;
    Wire.put_varint buf h.replica_gc_dropped

(* -- payload decoding -- *)

(* The peer closed before sending a single byte — a liveness probe or
   an abandoned connect, not damage. *)
exception Clean_close

let bool_field c =
  match Wire.byte c with
  | 0 -> false
  | 1 -> true
  | b -> raise (Wire.Malformed (Wire.offset c - 1, Printf.sprintf "bad boolean byte %d" b))

let f64 c = Int64.float_of_bits (Wire.i64 c)

(* each element is at least one byte *)
let int_list c = Wire.list c "list length" Wire.varint

(* each key is at least eleven bytes *)
let cache_key_list c = Wire.list c "key count" Result_cache.read_key

let string_list c = Wire.list c "record count" Wire.string

let ring_config_field c =
  let ring_version = Wire.varint c in
  let replication = Wire.varint c in
  (* each node name is at least one byte of length prefix *)
  let nodes = Wire.list c "node count" Wire.string in
  { ring_version; nodes; replication }

let method_field c =
  match Wire.byte c with
  | 3 -> Exact Analytical.Arena
  | 4 -> Approx
  | 0 | 1 | 2 ->
    let message = "method retired; use arena" in
    Dse_error.fail (Dse_error.Constraint_violation { context = "submit"; message })
  | b -> raise (Wire.Malformed (Wire.offset c - 1, Printf.sprintf "unknown method tag %d" b))

let query_field c =
  match Wire.byte c with
  | 0 -> Percents (int_list c)
  | 1 -> Budget (Wire.varint c)
  | b -> raise (Wire.Malformed (Wire.offset c - 1, Printf.sprintf "unknown query tag %d" b))

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

(* One decode for both submission forms: the daemon feeds an approx
   job's records straight into the streaming sketch, so no Trace.t
   exists and the peak per-job heap is the sketch state whatever the
   declared length, matching the [`Sketch] admission price. The
   profile's fingerprint is computed by the sketch over the same stream,
   so an approx job lands on the same cache identity as an exact one. *)
let trace_field ?max_job_refs ?memory_budget ~method_ ~sketch c =
  let declared = Wire.varint c in
  admit ?max_job_refs ?memory_budget ~method_ declared;
  (* each record is at least one byte, so a declared count beyond the
     remaining payload is corruption — caught before allocation *)
  Wire.check_count c declared "trace length";
  if sketch then begin
    let s = Sketch.create () in
    Wire.records c declared (Sketch.add s);
    Sketched (Sketch.finalize s)
  end
  else begin
    let trace = Trace.create ~capacity:(max 1 declared) () in
    Wire.records c declared (Trace.add trace);
    Full trace
  end

let decode_submit ?max_job_refs ?memory_budget ?(sketch_approx = false) c =
  let name = Wire.string c in
  let method_ = method_field c in
  let domains = Wire.varint c in
  let max_level = if bool_field c then Some (Wire.varint c) else None in
  let deadline = if bool_field c then Some (f64 c) else None in
  let query = query_field c in
  let sketch = sketch_approx && method_ = Approx in
  let trace = trace_field ?max_job_refs ?memory_budget ~method_ ~sketch c in
  Submit { name; trace; query; method_; domains; max_level; deadline }

let decode_error c =
  match Wire.byte c with
  | 0 ->
    let file = Wire.string c in
    let line = Wire.varint c in
    let message = Wire.string c in
    Dse_error.Parse_error { file; line; message }
  | 1 ->
    let file = Wire.string c in
    let offset = Wire.varint c in
    let message = Wire.string c in
    Dse_error.Corrupt_binary { file; offset; message }
  | 2 ->
    let context = Wire.string c in
    let message = Wire.string c in
    Dse_error.Constraint_violation { context; message }
  | 3 ->
    let shard = Wire.varint c in
    let attempts = Wire.varint c in
    let message = Wire.string c in
    Dse_error.Shard_failure { shard; attempts; message }
  | 4 ->
    let file = Wire.string c in
    let message = Wire.string c in
    Dse_error.Io_error { file; message }
  | 5 ->
    let pending = Wire.varint c in
    let max_pending = Wire.varint c in
    let retry_after = f64 c in
    Dse_error.Queue_full { pending; max_pending; retry_after }
  | 6 ->
    let elapsed = f64 c in
    let limit = f64 c in
    Dse_error.Deadline_exceeded { elapsed; limit }
  | 7 ->
    let elapsed = f64 c in
    let job = Wire.string c in
    Dse_error.Worker_stalled { elapsed; job }
  | 8 ->
    let resource = Wire.string c in
    let needed = Wire.varint c in
    let budget = Wire.varint c in
    Dse_error.Resource_exhausted { resource; needed; budget }
  | 9 ->
    let node = Wire.string c in
    let attempts = Wire.varint c in
    Dse_error.Backend_unavailable { node; attempts }
  | 10 ->
    let seen = Wire.varint c in
    let expected = Wire.varint c in
    Dse_error.Stale_ring { seen; expected }
  | b -> raise (Wire.Malformed (Wire.offset c - 1, Printf.sprintf "unknown error tag %d" b))

let bounds_field c =
  let est = f64 c in
  let lo = f64 c in
  let hi = f64 c in
  { Approx_dse.est; lo; hi }

let cell_field c =
  let assoc = Wire.varint c in
  let assoc_lo = Wire.varint c in
  let assoc_hi = Wire.varint c in
  { Approx_dse.assoc; assoc_lo; assoc_hi }

let decode_outcome c =
  match Wire.byte c with
  | 0 ->
    let name = Wire.string c in
    let stats = Result_cache.read_stats c in
    let percents = int_list c in
    let budgets = int_list c in
    let rows =
      Wire.list c "row count" (fun c ->
          let depth = Wire.varint c in
          let assocs = int_list c in
          (depth, assocs))
    in
    Table { Analytical_dse.name; stats; percents; budgets; rows }
  | 1 ->
    let k = Wire.varint c in
    let level_count = Wire.count c "level count" in
    let levels =
      Array.init level_count (fun _ ->
          let level = Wire.varint c in
          let depth = Wire.varint c in
          let min_associativity = Wire.varint c in
          let misses = Wire.varint c in
          let zero_miss_associativity = Wire.varint c in
          { Optimizer.level; depth; min_associativity; misses; zero_miss_associativity })
    in
    Optimal { Optimizer.k; levels }
  | 2 ->
    let name = Wire.string c in
    let n = Wire.varint c in
    let distinct = bounds_field c in
    let max_misses = bounds_field c in
    let alpha = f64 c in
    let fit_r2 = f64 c in
    let address_bits = Wire.varint c in
    let percents = int_list c in
    let budgets = int_list c in
    let rows =
      Wire.list c "row count" (fun c ->
          let depth = Wire.varint c in
          (depth, Wire.list c "cell count" cell_field))
    in
    Approx_table
      { Approx_dse.name; n; distinct; max_misses; alpha; fit_r2; address_bits; percents;
        budgets; rows }
  | 3 ->
    let k = Wire.varint c in
    let levels =
      Wire.list c "level count" (fun c ->
          let level = Wire.varint c in
          let depth = Wire.varint c in
          let cell = cell_field c in
          let misses = bounds_field c in
          { Approx_dse.level; depth; cell; misses })
    in
    Approx_optimal { Approx_dse.k; levels }
  | b -> raise (Wire.Malformed (Wire.offset c - 1, Printf.sprintf "unknown outcome tag %d" b))

let decode_health c =
  let node_id = Wire.string c in
  let start_epoch = f64 c in
  let uptime = f64 c in
  (* each worker record is at least four bytes *)
  let workers =
    Wire.list c "worker count" (fun c ->
        let slot = Wire.varint c in
        let busy = bool_field c in
        let job = Wire.string c in
        let heartbeat_age = f64 c in
        let jobs_done = Wire.varint c in
        { slot; busy; job; heartbeat_age; jobs_done })
  in
  let workers_replaced = Wire.varint c in
  let queue_depth = Wire.varint c in
  let queue_watermark = Wire.varint c in
  let max_pending = Wire.varint c in
  let shed = Wire.varint c in
  let admission_rejected = Wire.varint c in
  let jobs_completed = Wire.varint c in
  let cache_hits = Wire.varint c in
  let cache_misses = Wire.varint c in
  let cache_entries = Wire.varint c in
  let cache_evictions = Wire.varint c in
  let coalesced_hits = Wire.varint c in
  let wal_enabled = bool_field c in
  let wal_appends = Wire.varint c in
  let wal_failures = Wire.varint c in
  let peer_hits = Wire.varint c in
  let replicated_in = Wire.varint c in
  let replicated_out = Wire.varint c in
  let replication_lag = Wire.varint c in
  let replication_dropped = Wire.varint c in
  let ring_version = Wire.varint c in
  let draining = bool_field c in
  let replica_gc_dropped = Wire.varint c in
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

(* request tag 2 is the retired Server_stats *)
let tag_retired_server_stats = 2

let tag_ping = 3

let tag_health = 4

let tag_replicate = 5

let tag_cache_query = 6

let tag_ring_status = 7

let tag_ring_update = 8

let tag_drain = 9

let tag_result = 0x81

let tag_error = 0x82

let tag_pong = 0x84

let tag_health_reply = 0x85

let tag_replicate_ack = 0x86

let tag_cache_reply = 0x87

let tag_ring_reply = 0x88

(* One buffer per frame: [size] is the expected payload size, and the
   header is written in place in front of the payload. *)
let send_frame fd ~tag ~size encode =
  let bytes, off, len = Wire.framed ~tag ~magic ~version size encode in
  Transport.write_sub fd bytes off len

(* The exact size of a Submit's record stream, so the frame's buffer
   never grows; the record's kind bits do not change its varint size. *)
let trace_size trace =
  let size = ref (Wire.varint_size (Trace.length trace)) in
  Trace.iter_addrs (fun addr -> size := !size + Wire.varint_size (addr lsl 2)) trace;
  !size

(* Offsets in frame errors count from the frame start; offsets inside
   the payload count from the payload start. *)
let read_frame fd =
  let r = Wire.of_input ~eof:"unexpected end of stream" (Transport.read_some fd) in
  if Wire.at_end r then raise Clean_close;
  Wire.magic r magic;
  Wire.version r ~name:"protocol" version;
  let tag = Wire.byte r in
  let payload = Wire.sub r (Wire.length r) in
  Wire.footer r;
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
  | exception Wire.Malformed (offset, message) -> Error (corrupt ~peer offset message)
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
      let tag, size =
        match request with
        | Submit { name; trace = Full trace; _ } ->
          (tag_submit, 64 + String.length name + trace_size trace)
        | Submit _ -> (tag_submit, 1024)
        | Ping -> (tag_ping, 0)
        | Health -> (tag_health, 0)
        | Replicate _ -> (tag_replicate, 1024)
        | Cache_query _ -> (tag_cache_query, 1024)
        | Ring_status -> (tag_ring_status, 0)
        | Ring_update _ -> (tag_ring_update, 1024)
        | Drain _ -> (tag_drain, 1024)
      in
      send_frame fd ~tag ~size (fun buf -> encode_request buf request))

let write_response ?(peer = "<client>") fd response =
  guard ~peer ~timeout:timeout_message (fun () ->
      let tag =
        match response with
        | Result _ -> tag_result
        | Server_error _ -> tag_error
        | Pong -> tag_pong
        | Health_reply _ -> tag_health_reply
        | Replicate_ack _ -> tag_replicate_ack
        | Cache_reply _ -> tag_cache_reply
        | Ring_reply _ -> tag_ring_reply
      in
      send_frame fd ~tag ~size:1024 (fun buf -> encode_response buf response))

let read_request ?(peer = "<client>") ?max_job_refs ?memory_budget ?sketch_approx fd =
  guard ~peer ~timeout:timeout_message (fun () ->
      match read_frame fd with
      | exception Clean_close -> None
      | tag, c ->
        let request =
          if tag = tag_submit then decode_submit ?max_job_refs ?memory_budget ?sketch_approx c
          else if tag = tag_retired_server_stats then
            Dse_error.fail
              (Dse_error.Constraint_violation
                 { context = "request"; message = "server-stats retired; use health" })
          else if tag = tag_ping then Ping
          else if tag = tag_health then Health
          else if tag = tag_replicate then begin
            let ring_version = Wire.varint c in
            Replicate { ring_version; records = string_list c }
          end
          else if tag = tag_cache_query then begin
            let ring_version = Wire.varint c in
            Cache_query { ring_version; keys = cache_key_list c }
          end
          else if tag = tag_ring_status then Ring_status
          else if tag = tag_ring_update then Ring_update { config = ring_config_field c }
          else if tag = tag_drain then Drain { config = ring_config_field c }
          else raise (Wire.Malformed (5, Printf.sprintf "unknown request tag %d" tag))
        in
        Wire.finish c "request";
        Some request)

let read_response ?(peer = "<server>") fd =
  guard ~peer (fun () ->
      let tag, c =
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
      let response =
        if tag = tag_result then begin
          let cache_hit = bool_field c in
          let outcome = decode_outcome c in
          Result { outcome; cache_hit }
        end
        else if tag = tag_error then Server_error (decode_error c)
        else if tag = tag_pong then Pong
        else if tag = tag_health_reply then Health_reply (decode_health c)
        else if tag = tag_replicate_ack then Replicate_ack { stored = Wire.varint c }
        else if tag = tag_cache_reply then begin
          let keys = cache_key_list c in
          let records = string_list c in
          Cache_reply { keys; records }
        end
        else if tag = tag_ring_reply then begin
          let config = ring_config_field c in
          let draining = bool_field c in
          let pushed = Wire.varint c in
          Ring_reply { config; draining; pushed }
        end
        else raise (Wire.Malformed (5, Printf.sprintf "unknown response tag %d" tag))
      in
      Wire.finish c "response";
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
