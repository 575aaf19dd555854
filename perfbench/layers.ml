(* Per-layer metrics, all derived from the run's spans: per-input
   medians of each layer's self time, joined to the timed requests so a
   request-path layer is reported per request of the workload's mix. *)

type ctx = {
  selfs : (Spans.span * float) list;
  name_of : (int, string) Hashtbl.t;  (* span id -> name *)
  requests : int list;  (* input index of every timed request *)
}

let make spans ~requests =
  let name_of = Hashtbl.create 4096 in
  List.iter (fun (s : Spans.span) -> Hashtbl.replace name_of s.Spans.id s.Spans.name) spans;
  { selfs = Spans.self_times spans; name_of; requests }

let under ctx root (s : Spans.span) =
  match root with
  | None -> true
  | Some r -> Hashtbl.find_opt ctx.name_of s.Spans.parent = Some r

let selected ctx ?root name =
  List.filter (fun ((s : Spans.span), _) -> s.Spans.name = name && under ctx root s) ctx.selfs

(* median self time per input *)
let per_input ctx ?root name =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun ((s : Spans.span), self) ->
      if s.Spans.input >= 0 then
        let prev = Option.value (Hashtbl.find_opt groups s.Spans.input) ~default:[] in
        Hashtbl.replace groups s.Spans.input (self :: prev))
    (selected ctx ?root name);
  let medians = Hashtbl.create 64 in
  Hashtbl.iter (fun input samples -> Hashtbl.replace medians input (Quantile.median samples)) groups;
  medians

let mean_over_inputs table = Quantile.mean (Hashtbl.fold (fun _ v acc -> v :: acc) table [])

(* mean over the timed requests whose input the table covers *)
let per_request ctx table =
  Quantile.mean (List.filter_map (fun input -> Hashtbl.find_opt table input) ctx.requests)

let mean_self ctx ?root name = Quantile.mean (List.map snd (selected ctx ?root name))

let has ctx name = List.exists (fun ((s : Spans.span), _) -> s.Spans.name = name) ctx.selfs

(* sum of per-input stage medians, only for inputs that have them all *)
let stage_sum ctx stages =
  let tables = List.map (per_input ctx) stages in
  let sums = Hashtbl.create 64 in
  (match tables with
  | [] -> ()
  | first :: _ ->
    Hashtbl.iter
      (fun input _ ->
        match List.map (fun t -> Hashtbl.find_opt t input) tables with
        | values when List.for_all Option.is_some values ->
          Hashtbl.replace sums input (List.fold_left ( +. ) 0. (List.map Option.get values))
        | _ -> ())
      first);
  sums

(* [wait - stages] for each client.wait under [root] *)
let unattributed ctx ~root stages =
  let sums = stage_sum ctx stages in
  Quantile.mean
    (List.filter_map
       (fun ((s : Spans.span), self) ->
         Option.map (fun stage -> self -. stage) (Hashtbl.find_opt sums s.Spans.input))
       (selected ctx ~root "client.wait"))

let hit_stages =
  [ "protocol.read_request"; "protocol.submission_fingerprint"; "result_cache.find";
    "protocol.answer_entry"; "protocol.write_response" ]

let miss_stages =
  hit_stages @ [ "analytical.prepare"; "analytical.histograms"; "result_cache.store"; "wal.append" ]

let exact_process_stages =
  [ "trace_io.load_binary"; "analytical.prepare"; "analytical.histograms";
    "analytical_dse.of_histograms" ]

(* The request root whose client spans split the workload's latency:
   its own timed requests when it has any, else the direct probe. *)
let client_root ctx = if has ctx "request" then "request" else "probe.direct"

type metric = { name : string; unit_ : string; value : float }

let metrics ctx ~miss ~(counters : Served.counters) ~overhead_ms =
  let ms x = 1000. *. x and us x = 1e6 *. x in
  let input_s name = mean_over_inputs (per_input ctx name) in
  let request_s name = per_request ctx (per_input ctx name) in
  let root = client_root ctx in
  let process = per_input ctx "explore.process" in
  let stages = stage_sum ctx exact_process_stages in
  let explore_unattributed =
    Quantile.mean
      (Hashtbl.fold
         (fun input wall acc ->
           match Hashtbl.find_opt stages input with
           | Some s -> (wall -. s) :: acc
           | None -> acc)
         process [])
  in
  let lookups = counters.Served.hits + counters.Served.misses in
  [
    ("trace_io.load_binary_s", "s", input_s "trace_io.load_binary");
    ("approx_dse.sketch_file_s", "s", input_s "approx_dse.sketch_file");
    ("approx_dse.estimate_s", "s", input_s "approx_dse.estimate");
    ("analytical.prepare_s", "s", input_s "analytical.prepare");
    ("analytical.histograms_s", "s", input_s "analytical.histograms");
    ("analytical.prepare_ms", "ms", ms (request_s "analytical.prepare"));
    ("analytical.histograms_ms", "ms", ms (request_s "analytical.histograms"));
    ("analytical_dse.of_histograms_s", "s", input_s "analytical_dse.of_histograms");
    ("explore.unattributed_s", "s", explore_unattributed);
    ("client.connect_ms", "ms", ms (mean_self ctx ~root "client.connect"));
    ("client.write_ms", "ms", ms (mean_self ctx ~root "client.write"));
    ("client.wait_ms", "ms", ms (mean_self ctx ~root "client.wait"));
    ("client.read_ms", "ms", ms (mean_self ctx ~root "client.read"));
    ("transport.ping_ms", "ms", ms (mean_self ctx "transport.ping"));
    ("protocol.read_request_ms", "ms", ms (request_s "protocol.read_request"));
    ("protocol.write_response_ms", "ms", ms (request_s "protocol.write_response"));
    ("protocol.submission_fingerprint_ms", "ms", ms (request_s "protocol.submission_fingerprint"));
    ("result_cache.find_us", "us", us (request_s "result_cache.find"));
    ("protocol.answer_entry_ms", "ms", ms (request_s "protocol.answer_entry"));
    ("result_cache.store_us", "us", us (request_s "result_cache.store"));
    ("wal.append_ms", "ms", ms (request_s "wal.append"));
    ( "server.unattributed_ms",
      "ms",
      ms (unattributed ctx ~root (if miss then miss_stages else hit_stages)) );
    ( "server.cache_hit_ratio",
      "ratio",
      if lookups = 0 then 0. else float_of_int counters.Served.hits /. float_of_int lookups );
    ("server.jobs_completed", "count", float_of_int counters.Served.jobs_completed);
    ("server.coalesced_hits", "count", float_of_int counters.Served.coalesced_hits);
    ("server.shed", "count", float_of_int counters.Served.shed);
    ("server.cache_evictions", "count", float_of_int counters.Served.cache_evictions);
    ("server.wal_appends", "count", float_of_int counters.Served.wal_appends);
    ("server.wal_failures", "count", float_of_int counters.Served.wal_failures);
    ("trace.overhead_ms", "ms", overhead_ms);
  ]
  |> List.map (fun (name, unit_, value) -> { name; unit_; value })
