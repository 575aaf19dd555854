(* Command-line front end for the analytical cache design-space
   exploration flow:

     dse stats    TRACE                  trace statistics (Tables 5/6 row)
     dse explore  TRACE [options]        analytical DSE (Tables 7-30 style)
     dse simulate TRACE --depth --assoc  reference cache simulation
     dse compare  TRACE                  cross-check analytical vs one-pass
     dse gen      BENCH -o FILE          emit a benchmark trace
     dse list                            list bundled benchmarks *)

open Cmdliner

(* Exit codes: 0 ok, 2 usage, 3 I/O, 4 corrupt data, 5 internal,
   6 queue full, 7 deadline exceeded, 8 supervision (worker stalled /
   admission rejected), 9 routing (backend unavailable after failover),
   10 stale ring (a cluster exchange fenced by a newer membership
   epoch; see Dse_error.exit_code). Every
   error goes to stderr, never stdout, and
   traces are loaded before any report rendering starts, so diagnostics
   cannot interleave with report output. *)

let or_exit = function
  | Ok v -> v
  | Error e ->
    Format.eprintf "dse: %s@." (Dse_error.to_string e);
    exit (Dse_error.exit_code e)

let usage_fail message =
  Dse_error.fail (Dse_error.Constraint_violation { context = "usage"; message })

let report_skipped path skipped errors =
  if skipped > 0 then begin
    Format.eprintf "dse: %s: skipped %d malformed record(s)@." path skipped;
    List.iter (fun e -> Format.eprintf "dse:   %s@." (Dse_error.to_string e)) errors;
    if skipped > Trace_io.max_reported_errors then
      Format.eprintf "dse:   ... and %d more@." (skipped - Trace_io.max_reported_errors)
  end

let load_trace format on_error path =
  let loader =
    match format with
    | `Text -> Trace_io.load
    | `Binary -> Trace_io.load_binary
    | `Dinero -> Trace_io.load_dinero
  in
  let ingest = or_exit (loader ~on_error path) in
  report_skipped path ingest.Trace_io.skipped ingest.Trace_io.errors;
  ingest.Trace_io.trace

(* The streaming ingestion for the approximate plane: the trace file is
   folded straight into the sketch, so nothing trace-length-sized is
   ever allocated. *)
let sketch_trace_file format on_error path =
  let profile, stream = or_exit (Approx_dse.sketch_file ~on_error ~format path) in
  report_skipped path stream.Trace_io.skipped stream.Trace_io.errors;
  profile

let on_error_arg =
  let parse s =
    match s with
    | "fail" -> Ok Trace_io.Fail
    | "skip" -> Ok Trace_io.Skip
    | _ -> (
      match String.split_on_char ':' s with
      | [ "stop-after"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> Ok (Trace_io.Stop_after n)
        | _ -> Error (`Msg (Printf.sprintf "bad stop-after count %S" n)))
      | _ -> Error (`Msg (Printf.sprintf "bad on-error policy %S (expected fail, skip, or stop-after:N)" s)))
  in
  let print fmt = function
    | Trace_io.Fail -> Format.fprintf fmt "fail"
    | Trace_io.Skip -> Format.fprintf fmt "skip"
    | Trace_io.Stop_after n -> Format.fprintf fmt "stop-after:%d" n
  in
  Arg.(
    value
    & opt (conv (parse, print)) Trace_io.Fail
    & info [ "on-error" ] ~docv:"POLICY"
        ~doc:
          "What to do with malformed trace records: $(b,fail) (default), $(b,skip) (drop, \
           count, and summarise them on stderr), or $(b,stop-after:N) (tolerate up to N).")

let trace_arg =
  let doc = "Trace file (lines of '<F|R|W> <address>', hex or decimal)." in
  (* [string], not [file]: a missing trace must surface as a typed
     [Io_error] (exit 3), not a cmdliner usage error (exit 2) *)
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let format_arg =
  let formats = [ ("text", `Text); ("binary", `Binary); ("dinero", `Dinero) ] in
  Arg.(
    value
    & opt (enum formats) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Trace file format: text, binary, or dinero.")

let max_depth_arg =
  let doc = "Largest cache depth (rows) to evaluate; a power of two." in
  Arg.(value & opt (some int) None & info [ "max-depth" ] ~docv:"DEPTH" ~doc)

let level_of_max_depth = function
  | None -> None
  | Some d ->
    if d < 1 || d land (d - 1) <> 0 then usage_fail "max-depth must be a positive power of two"
    else begin
      let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
      Some (log2 d 0)
    end

(* -- stats -- *)

let stats_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one machine-readable JSON object (name, fingerprint, N, N', address bits, \
             maximum misses) instead of the aligned table.")
  in
  let run path format on_error json =
    (* one pass over the file, O(N') memory: the interner's statistics,
       the streaming fingerprint and the sketch's cardinality estimate
       (the always-on cross-check of the approximate plane) all take
       each address as it is decoded *)
    let counter = Arena_kernel.counter_create () in
    let fingerprint = Trace.fingerprinter () in
    let distinct = Sketch.distinct_create () in
    let sink ~addr ~kind:_ =
      Arena_kernel.counter_add counter addr;
      Trace.fingerprinter_add fingerprint addr;
      Sketch.distinct_add distinct addr
    in
    let ingest = or_exit (Trace_io.iter ~on_error ~format path sink) in
    report_skipped path ingest.Trace_io.skipped ingest.Trace_io.errors;
    let stats = Arena_kernel.counter_stats counter in
    let name = Filename.basename path in
    let fingerprint = Trace.fingerprinter_finish fingerprint ~len:stats.Stats.n in
    let distinct_addrs_approx = Sketch.distinct_estimate distinct in
    if json then
      print_endline (Report.stats_to_json ~name ~fingerprint ~distinct_addrs_approx stats)
    else begin
      Format.printf "%a@." Report.pp_stats_table [ (name, stats) ];
      Format.printf "fingerprint %016Lx@." fingerprint;
      Format.printf "distinct_addrs_approx %.1f@." distinct_addrs_approx
    end
  in
  let term = Term.(const run $ trace_arg $ format_arg $ on_error_arg $ json_arg) in
  Cmd.v (Cmd.info "stats" ~doc:"Print trace statistics (N, N', maximum misses).") term

(* -- explore -- *)

let percents_arg =
  let doc = "Miss budgets as percentages of the maximum miss count." in
  Arg.(value & opt (list int) [ 5; 10; 15; 20 ] & info [ "percents" ] ~docv:"P,..." ~doc)

let absolute_k_arg =
  let doc = "Absolute miss budget K; overrides $(b,--percents)." in
  Arg.(value & opt (some int) None & info [ "k"; "budget" ] ~docv:"K" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of an aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let trim_arg =
  let doc = "Keep all depths instead of stopping at the first all-direct-mapped row." in
  Arg.(value & flag & info [ "no-trim" ] ~doc)

let method_arg =
  Arg.(
    value
    & opt (enum [ ("arena", `Arena); ("approx", `Approx) ]) `Arena
    & info [ "method" ] ~docv:"METHOD"
        ~doc:
          "Analysis method: $(b,arena) (the default) runs the exact fused kernel in one pass \
           over off-heap flat arenas with GC-invisible state; $(b,approx) profiles the trace \
           in one streaming pass (HyperLogLog + top-K + reuse probes, O(kilobytes) whatever \
           the trace length) and estimates per-(depth, associativity) miss counts with error \
           bars via a Che/Fagin power-law model. $(b,dse explore) never loads the trace into \
           memory for $(b,approx).")

let explore_cmd =
  let run path format on_error percents k max_depth csv no_trim method_ =
    let max_level = level_of_max_depth max_depth in
    let name = Filename.basename path in
    if method_ = `Approx then begin
      let profile = sketch_trace_file format on_error path in
      let prepared = Approx_dse.prepare profile in
      match k with
      | Some k ->
        Format.printf "%a@." Report.pp_approx_optimal (Approx_dse.optimal ?max_level ~k prepared)
      | None ->
        let table = Approx_dse.table ~percents ?max_level ~name prepared in
        let table = if no_trim then table else Approx_dse.trim table in
        if csv then print_string (Report.approx_to_csv table)
        else Format.printf "%a@." Report.pp_approx_instances table
    end
    else begin
      (* decode, intern and count in one pass over the file *)
      let s = or_exit (Analytical.stream_file ?max_level ~on_error ~format path) in
      let ingest = s.Analytical.ingest in
      report_skipped path ingest.Trace_io.skipped ingest.Trace_io.errors;
      let stats = s.Analytical.stats and histograms = s.Analytical.histograms in
      match k with
      | Some k -> Format.printf "%a@." Optimizer.pp (Optimizer.of_histograms ~k histograms)
      | None ->
        let table = Analytical_dse.of_histograms ~percents ~name ~stats histograms in
        let table = if no_trim then table else Analytical_dse.trim table in
        if csv then print_string (Report.instances_to_csv table)
        else Format.printf "%a@." Report.pp_instances table
    end
  in
  let term =
    Term.(const run $ trace_arg $ format_arg $ on_error_arg $ percents_arg $ absolute_k_arg
          $ max_depth_arg $ csv_arg $ trim_arg $ method_arg)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Compute optimal (depth, associativity) cache instances analytically.")
    term

(* -- simulate -- *)

let simulate_cmd =
  let depth_arg =
    Arg.(required & opt (some int) None & info [ "depth" ] ~docv:"D" ~doc:"Cache depth (rows).")
  in
  let assoc_arg =
    Arg.(required & opt (some int) None & info [ "assoc" ] ~docv:"A" ~doc:"Associativity (ways).")
  in
  let line_arg =
    Arg.(value & opt int 1 & info [ "line" ] ~docv:"W" ~doc:"Line size in words.")
  in
  let policy_arg =
    let policies = [ ("lru", `Lru); ("fifo", `Fifo); ("random", `Random) ] in
    Arg.(value & opt (enum policies) `Lru & info [ "policy" ] ~doc:"Replacement policy.")
  in
  let run path format on_error depth assoc line policy =
    let trace = load_trace format on_error path in
    let replacement =
      match policy with `Lru -> Config.Lru | `Fifo -> Config.Fifo | `Random -> Config.Random 1
    in
    let config = Config.make ~line_words:line ~replacement ~depth ~associativity:assoc () in
    let stats = Cache.simulate config trace in
    Format.printf "%a@.%a@." Config.pp config Cache.pp_stats stats
  in
  let term =
    Term.(const run $ trace_arg $ format_arg $ on_error_arg $ depth_arg $ assoc_arg $ line_arg
          $ policy_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate one cache configuration over a trace.") term

(* -- compare -- *)

let compare_cmd =
  let run path format on_error max_depth =
    let trace = load_trace format on_error path in
    let max_level = level_of_max_depth max_depth in
    let outcome = Compare.trace ?max_level trace in
    Format.printf "%a@." Compare.pp outcome;
    if not (Compare.agree outcome) then exit 1
  in
  let term = Term.(const run $ trace_arg $ format_arg $ on_error_arg $ max_depth_arg) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Cross-check the analytical model against stack simulation.")
    term

(* -- gen -- *)

let gen_cmd =
  let bench_arg =
    let doc = "Benchmark name; see $(b,dse list)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let kind_arg =
    let kinds = [ ("inst", `Inst); ("data", `Data) ] in
    Arg.(value & opt (enum kinds) `Data & info [ "kind" ] ~doc:"Trace kind: inst or data.")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let binary_arg =
    Arg.(value & flag & info [ "binary" ] ~doc:"Write the compact binary format.")
  in
  let run name kind out binary =
    let bench =
      try Registry.find name
      with Not_found -> usage_fail (Printf.sprintf "unknown benchmark %S" name)
    in
    let itrace, dtrace = Workload.traces bench in
    let trace = match kind with `Inst -> itrace | `Data -> dtrace in
    or_exit (if binary then Trace_io.save_binary out trace else Trace_io.save out trace);
    Format.printf "wrote %d references to %s@." (Trace.length trace) out
  in
  let term = Term.(const run $ bench_arg $ kind_arg $ out_arg $ binary_arg) in
  Cmd.v (Cmd.info "gen" ~doc:"Run a bundled benchmark on the VM and save its trace.") term

(* -- synth -- *)

let synth_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let refs_arg =
    Arg.(
      value
      & opt int 10_000_000
      & info [ "refs"; "length" ] ~docv:"N"
          ~doc:
            "Number of references to emit. The generator and the binary writer are both \
             streaming (O(1) state per reference), so 10^8+ is fine.")
  in
  let span_arg =
    Arg.(
      value
      & opt int 65536
      & info [ "span" ] ~docv:"WORDS"
          ~doc:
            "Address-space size the popularity law is drawn over. The sampler builds an O(span) \
             table first, 8 bytes per address, so a span above 2^27 (134217728, a 1 GiB table) is \
             refused.")
  in
  let skew_arg =
    Arg.(
      value
      & opt float 0.8
      & info [ "skew"; "alpha" ] ~docv:"ALPHA"
          ~doc:"Zipf exponent: P(rank k) proportional to 1/(k+1)^ALPHA.")
  in
  let churn_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "churn" ] ~docv:"P"
          ~doc:
            "Per-reference probability that the drawn object is remapped to a fresh address — \
             a stationary popularity shape over a drifting working set.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic generator seed.")
  in
  let binary_arg =
    Arg.(value & flag & info [ "binary" ] ~doc:"Write the compact binary format.")
  in
  let run out refs span skew churn seed binary =
    if refs < 1 then usage_fail "refs must be >= 1";
    if span < 1 then usage_fail "span must be >= 1";
    Synthetic.check_span span;
    (* NaN fails this too *)
    if not (skew > 0.) then usage_fail "skew must be > 0";
    if churn < 0. || churn > 1. then usage_fail "churn must be in [0, 1]";
    let generate = Synthetic.iter_power_law ~seed ~span ~skew ~churn ~length:refs in
    let write oc =
      if binary then Trace_io.write_binary_stream oc ~length:refs generate
      else
        generate (fun ~addr ~kind ->
            let letter =
              match kind with Trace.Fetch -> 'F' | Trace.Read -> 'R' | Trace.Write -> 'W'
            in
            Printf.fprintf oc "%c 0x%x\n" letter addr)
    in
    let io_fail message = or_exit (Error (Trace_io.io_error out message)) in
    let oc = try open_out_bin out with Sys_error message -> io_fail message in
    (match
       write oc;
       close_out oc
     with
    | () -> ()
    | exception e ->
      (* a partial trace must not pass for a whole one; only a regular
         file is removed, never a device such as /dev/full *)
      close_out_noerr oc;
      (match Unix.stat out with
      | { Unix.st_kind = Unix.S_REG; _ } -> Sys.remove out
      | _ | (exception Unix.Unix_error _) -> ());
      (match e with Sys_error message -> io_fail message | e -> raise e));
    Format.printf "wrote %d references to %s@." refs out
  in
  let term =
    Term.(const run $ out_arg $ refs_arg $ span_arg $ skew_arg $ churn_arg $ seed_arg $ binary_arg)
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Stream a synthetic power-law (zipfian) trace to a file without materialising it \
          (the sampler's table is O($(b,--span)), the rest O(1) per reference): the scaling \
          companion to $(b,dse explore --method approx).")
    term

(* -- reduce -- *)

let reduce_cmd =
  let depth_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "depth" ] ~docv:"F"
          ~doc:"Filter depth; miss counts are preserved for caches of depth >= F.")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run path format on_error depth out =
    let trace = load_trace format on_error path in
    let r = Reduce.filter ~depth trace in
    or_exit (Trace_io.save out r.Reduce.reduced);
    Format.printf "kept %d of %d references (%.1f%%), removed %d filter hits@."
      (Trace.length r.Reduce.reduced)
      r.Reduce.original_length
      (100.0 *. Reduce.reduction_ratio r)
      r.Reduce.filter_hits
  in
  let term = Term.(const run $ trace_arg $ format_arg $ on_error_arg $ depth_arg $ out_arg) in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Strip a trace through a direct-mapped filter cache (Puzak/Wu-Wolf).")
    term

(* -- pareto -- *)

let pareto_cmd =
  let k_arg =
    Arg.(required & opt (some int) None & info [ "k"; "budget" ] ~docv:"K" ~doc:"Miss budget.")
  in
  let run path format on_error k =
    let trace = load_trace format on_error path in
    let points = Pareto.candidates trace ~k in
    let frontier = Pareto.frontier points in
    List.iter
      (fun p ->
        Format.printf "%s %a@." (if List.memq p frontier then "*" else " ") Pareto.pp_point p)
      points;
    Format.printf "* = Pareto-optimal under (energy, time, area)@."
  in
  let term = Term.(const run $ trace_arg $ format_arg $ on_error_arg $ k_arg) in
  Cmd.v
    (Cmd.info "pareto" ~doc:"Cost the budget-meeting instances and mark the Pareto set.")
    term

(* -- disasm -- *)

let disasm_cmd =
  let bench_arg =
    let doc = "Benchmark name; see $(b,dse list)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let encoded_arg =
    Arg.(value & flag & info [ "hex" ] ~doc:"Also print the 32-bit encodings.")
  in
  let run name hex =
    let bench =
      try Registry.find name
      with Not_found -> usage_fail (Printf.sprintf "unknown benchmark %S" name)
    in
    let program = Asm.assemble bench.Workload.program in
    Array.iteri
      (fun pc instr ->
        if hex then Format.printf "%4d  %08x  %a@." pc (Encode.encode instr) Isa.pp_instr instr
        else Format.printf "%4d  %a@." pc Isa.pp_instr instr)
      program
  in
  let term = Term.(const run $ bench_arg $ encoded_arg) in
  Cmd.v (Cmd.info "disasm" ~doc:"Print the assembled listing of a bundled benchmark.") term

(* -- codesign -- *)

let codesign_cmd =
  let bench_arg =
    let doc = "Benchmark name; see $(b,dse list)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let k_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "k"; "budget" ] ~docv:"K" ~doc:"Total miss budget across both caches.")
  in
  let run name k_total =
    let bench =
      try Registry.find name
      with Not_found -> usage_fail (Printf.sprintf "unknown benchmark %S" name)
    in
    let itrace, dtrace = Workload.traces bench in
    let best = Codesign.partition ~itrace ~dtrace ~k_total () in
    Format.printf "best split: %a@." Codesign.pp_split best
  in
  let term = Term.(const run $ bench_arg $ k_arg) in
  Cmd.v
    (Cmd.info "codesign"
       ~doc:"Partition one miss budget between the I- and D-cache, minimising total size.")
    term

(* -- serve / submit -- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/dse.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the DSE service.")

let serve_cmd =
  let workers_arg =
    Arg.(
      value
      & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains running jobs (default 0 = one less than the host's cores, at least 1).")
  in
  let max_pending_arg =
    Arg.(
      value
      & opt int 16
      & info [ "max-pending" ] ~docv:"M"
          ~doc:
            "Bound on queued jobs: submissions beyond it are rejected immediately with a typed \
             queue-full error (exit 6 on the client) instead of buffering without limit.")
  in
  let cache_entries_arg =
    Arg.(
      value
      & opt int Result_cache.default_capacity
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:
            "Bound on in-memory cached results; storing past it evicts the least-recently-used \
             entry (evictions are visible in $(b,dse submit --health)).")
  in
  let wal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"PATH"
          ~doc:
            "Persist cached results to this crash-safe log and replay it on startup, so a \
             restarted (even kill -9'd) daemon answers repeats warm. Torn or corrupted records \
             are skipped; intact ones survive.")
  in
  let hang_timeout_arg =
    Arg.(
      value
      & opt float 30.0
      & info [ "hang-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Seconds of worker-heartbeat silence before the watchdog declares the worker wedged: \
             its job is answered with a typed worker-stalled error (exit 8 on the client), the \
             domain is abandoned and a replacement is spawned.")
  in
  let max_job_refs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-job-refs" ] ~docv:"N"
          ~doc:
            "Admission bound on a submission's declared reference count; larger jobs are \
             rejected with a typed resource-exhausted error before their trace is allocated.")
  in
  let memory_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "memory-budget" ] ~docv:"MIB"
          ~doc:
            "Admission bound on a submission's estimated memory footprint, in MiB (judged from \
             the declared reference count, before allocation). Exact jobs are charged 128 KiB \
             plus 192 bytes/ref; approx jobs a fixed 4 MiB whatever their length.")
  in
  let supervise_arg =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the daemon as a supervised child process, respawning it on abnormal exit with \
             exponential crash-loop backoff (giving up after repeated rapid crashes). Combined \
             with $(b,--wal), each respawn replays the result log and answers warm.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "Also listen on TCP (same wire protocol as the Unix socket), so the daemon can \
             serve other hosts — typically as a backend behind $(b,dse route). An empty host \
             binds every interface.")
  in
  let node_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "node-id" ] ~docv:"ID"
          ~doc:
            "Identity reported in health replies (default: the TCP address, else the socket \
             path). Stable across restarts, which is how a router tells a respawn — same id, \
             newer start epoch — from a different node.")
  in
  let peer_arg =
    Arg.(
      value & opt_all string []
      & info [ "peer" ] ~docv:"ADDR"
          ~doc:
            "Another $(b,dse serve) node of the same cluster, spelled exactly as the router's \
             $(b,--backend) for it (and as its $(b,--node-id)). Repeat once per peer. Enables \
             the cluster-durability plane: finished results are replicated to ring successors \
             and peers' caches answer $(b,Cache_query) lookups.")
  in
  let replication_arg =
    Arg.(
      value & opt int 2
      & info [ "replication" ] ~docv:"R"
          ~doc:
            "Total copies (the computing node included) each finished result should have on \
             the ring; 1 disables pushes. Only meaningful with $(b,--peer).")
  in
  let replication_queue_arg =
    Arg.(
      value & opt int 256
      & info [ "replication-queue" ] ~docv:"N"
          ~doc:
            "Bound on queued outbound replication pushes; overflow drops the push (counted) \
             rather than stalling job completion.")
  in
  let anti_entropy_arg =
    Arg.(
      value & flag
      & info [ "anti-entropy" ]
          ~doc:
            "On startup, exchange cache-key digests with ring neighbours and pull the entries \
             of this node's key range it does not hold — a WAL-less respawn re-warms from its \
             peers.")
  in
  let run socket workers max_pending cache_entries wal hang_timeout max_job_refs
      memory_budget_mib supervise tcp node_id peers replication replication_queue anti_entropy =
    let workers =
      if workers = 0 then max 1 (Domain.recommended_domain_count () - 1) else workers
    in
    if workers < 1 then usage_fail "workers must be >= 1";
    if max_pending < 1 then usage_fail "max-pending must be >= 1";
    if cache_entries < 1 then usage_fail "cache-entries must be >= 1";
    if not (hang_timeout > 0.) then usage_fail "hang-timeout must be > 0 seconds";
    (match max_job_refs with
    | Some n when n < 1 -> usage_fail "max-job-refs must be >= 1"
    | _ -> ());
    (match memory_budget_mib with
    | Some n when n < 1 -> usage_fail "memory-budget must be >= 1 MiB"
    | _ -> ());
    if replication < 1 then usage_fail "replication must be >= 1";
    if replication_queue < 1 then usage_fail "replication-queue must be >= 1";
    let memory_budget = Option.map (fun mib -> mib * 1024 * 1024) memory_budget_mib in
    let serve_once () =
      let server =
        or_exit
          (Server.create
             {
               Server.socket_path = socket;
               tcp;
               node_id;
               workers;
               max_pending;
               cache_entries;
               wal_path = wal;
               hang_timeout;
               max_job_refs;
               memory_budget;
               peers;
               replication;
               replication_queue;
               anti_entropy;
             })
      in
      Server.install_signal_handlers server;
      Format.eprintf
        "dse: serving on %s%s (workers=%d, max-pending=%d, cache-entries=%d, hang-timeout=%g%s%s); \
         SIGTERM drains@."
        socket
        (match tcp with None -> "" | Some addr -> Printf.sprintf " and tcp %s" addr)
        workers max_pending cache_entries hang_timeout
        (match wal with None -> "" | Some path -> Printf.sprintf ", wal=%s" path)
        (match peers with
        | [] -> ""
        | ps -> Printf.sprintf ", peers=%d, replication=%d" (List.length ps) replication);
      (* the serve loop catches and logs per-connection/per-job failures
         itself; Cmd.eval_value ~catch:false therefore never sees a raw
         exception from the long-running path *)
      Server.run server
    in
    if supervise then begin
      (* flush before forking so the child does not replay buffered
         parent output *)
      flush stdout;
      flush stderr;
      exit (Supervisor.run ~log:(fun msg -> Format.eprintf "dse: %s@." msg) serve_once)
    end
    else serve_once ()
  in
  let term =
    Term.(const run $ socket_arg $ workers_arg $ max_pending_arg $ cache_entries_arg $ wal_arg
          $ hang_timeout_arg $ max_job_refs_arg $ memory_budget_arg $ supervise_arg $ tcp_arg
          $ node_id_arg $ peer_arg $ replication_arg $ replication_queue_arg $ anti_entropy_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batch DSE service: a daemon answering submitted traces through a bounded job \
          queue, a worker pool over domains, and a content-addressed result cache.")
    term

let submit_cmd =
  let trace_opt_arg =
    let doc = "Trace file to submit (optional with $(b,--ping) or $(b,--health))." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Only check that the service is alive.")
  in
  let health_arg =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Print the service's structured readiness: per-worker state and heartbeat age, \
             queue depth against its shedding watermark, shed/admission counters, cache and WAL \
             health, uptime.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Bound the job's server-side runtime (queue wait included). The kernel polls the \
             deadline cooperatively and expiry is a typed reply; the client exits 7.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry transient failures (queue full, connection refused, read timeout) up to N \
             times with jittered exponential backoff. Default 0: fail fast.")
  in
  let retry_base_arg =
    Arg.(
      value
      & opt float 0.1
      & info [ "retry-base" ] ~docv:"SECONDS"
          ~doc:"Base backoff delay; attempt $(i,i) sleeps about base * 2^i, jittered.")
  in
  let retry_cap_arg =
    Arg.(
      value
      & opt float 30.0
      & info [ "retry-cap" ] ~docv:"SECONDS"
          ~doc:
            "Hard wall-clock bound across all retry attempts; once it would be exceeded the \
             last typed error is reported instead of sleeping on.")
  in
  let addr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:
            "Service address, overriding $(b,--socket): either $(i,HOST:PORT) for a TCP \
             listener or router, or a Unix socket path.")
  in
  let run socket addr path format on_error percents k max_depth csv no_trim method_ ping health
      deadline retries retry_base retry_cap =
    let socket = Option.value addr ~default:socket in
    if ping then begin
      or_exit (Client.ping ~socket);
      Format.printf "pong@."
    end
    else if health then begin
      let h = or_exit (Client.health ~socket) in
      Format.printf "node_id %s@." h.Protocol.node_id;
      Format.printf "start_epoch %.3f@." h.Protocol.start_epoch;
      Format.printf "uptime %.1f@." h.Protocol.uptime;
      Format.printf "workers %d@." (List.length h.Protocol.workers);
      List.iter
        (fun (w : Protocol.worker_health) ->
          if w.Protocol.busy then
            Format.printf "worker %d busy job %s heartbeat_age %.3f jobs_done %d@."
              w.Protocol.slot w.Protocol.job w.Protocol.heartbeat_age w.Protocol.jobs_done
          else Format.printf "worker %d idle jobs_done %d@." w.Protocol.slot w.Protocol.jobs_done)
        h.Protocol.workers;
      Format.printf "workers_replaced %d@." h.Protocol.workers_replaced;
      Format.printf "queue_depth %d@." h.Protocol.queue_depth;
      Format.printf "queue_watermark %d@." h.Protocol.queue_watermark;
      Format.printf "max_pending %d@." h.Protocol.max_pending;
      Format.printf "shed %d@." h.Protocol.shed;
      Format.printf "admission_rejected %d@." h.Protocol.admission_rejected;
      Format.printf "jobs_completed %d@." h.Protocol.jobs_completed;
      Format.printf "cache_hits %d@." h.Protocol.cache_hits;
      Format.printf "cache_misses %d@." h.Protocol.cache_misses;
      Format.printf "cache_entries %d@." h.Protocol.cache_entries;
      Format.printf "cache_evictions %d@." h.Protocol.cache_evictions;
      Format.printf "coalesced_hits %d@." h.Protocol.coalesced_hits;
      Format.printf "wal %s@." (if h.Protocol.wal_enabled then "enabled" else "disabled");
      Format.printf "wal_appends %d@." h.Protocol.wal_appends;
      Format.printf "wal_failures %d@." h.Protocol.wal_failures;
      Format.printf "peer_hits %d@." h.Protocol.peer_hits;
      Format.printf "replicated_in %d@." h.Protocol.replicated_in;
      Format.printf "replicated_out %d@." h.Protocol.replicated_out;
      Format.printf "replication_lag %d@." h.Protocol.replication_lag;
      Format.printf "replication_dropped %d@." h.Protocol.replication_dropped;
      Format.printf "ring_version %d@." h.Protocol.ring_version;
      Format.printf "draining %b@." h.Protocol.draining;
      Format.printf "replica_gc_dropped %d@." h.Protocol.replica_gc_dropped
    end
    else begin
      match path with
      | None -> usage_fail "TRACE is required unless --ping or --health is given"
      | Some path ->
        (match deadline with
        | Some d when not (d > 0.) -> usage_fail "deadline must be > 0 seconds"
        | _ -> ());
        if retries < 0 then usage_fail "retries must be >= 0";
        if not (retry_base > 0.) then usage_fail "retry-base must be > 0";
        if not (retry_cap > 0.) then usage_fail "retry-cap must be > 0";
        let trace = load_trace format on_error path in
        let max_level = level_of_max_depth max_depth in
        let name = Filename.basename path in
        let payload =
          or_exit
            (Client.submit ~socket ~percents ?k ?max_level ~approx:(method_ = `Approx) ?deadline
               ~retries ~retry_base ~retry_cap ~name trace)
        in
        if payload.Protocol.cache_hit then Format.eprintf "dse: served from the result cache@.";
        (match payload.Protocol.outcome with
        | Protocol.Optimal result -> Format.printf "%a@." Optimizer.pp result
        | Protocol.Table table ->
          let table = if no_trim then table else Analytical_dse.trim table in
          if csv then print_string (Report.instances_to_csv table)
          else Format.printf "%a@." Report.pp_instances table
        | Protocol.Approx_optimal result -> Format.printf "%a@." Report.pp_approx_optimal result
        | Protocol.Approx_table table ->
          let table = if no_trim then table else Approx_dse.trim table in
          if csv then print_string (Report.approx_to_csv table)
          else Format.printf "%a@." Report.pp_approx_instances table)
    end
  in
  let term =
    Term.(const run $ socket_arg $ addr_arg $ trace_opt_arg $ format_arg $ on_error_arg
          $ percents_arg $ absolute_k_arg $ max_depth_arg $ csv_arg $ trim_arg $ method_arg
          $ ping_arg $ health_arg $ deadline_arg
          $ retries_arg $ retry_base_arg $ retry_cap_arg)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a trace to a running $(b,dse serve) daemon; output is identical to $(b,dse \
          explore) on the same trace, and repeated submissions are answered from the service's \
          result cache.")
    term

(* -- cc -- *)

let cc_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c" ~doc:"MiniC source file.")
  in
  let run_flag = Arg.(value & flag & info [ "run" ] ~doc:"Execute after compiling.") in
  let disasm_flag = Arg.(value & flag & info [ "disasm" ] ~doc:"Print the generated code.") in
  let no_bounds_flag =
    Arg.(value & flag & info [ "no-bounds-checks" ] ~doc:"Disable array bounds checking.")
  in
  let itrace_arg =
    Arg.(value & opt (some string) None & info [ "itrace" ] ~docv:"FILE" ~doc:"Write the instruction trace here (implies --run).")
  in
  let dtrace_arg =
    Arg.(value & opt (some string) None & info [ "dtrace" ] ~docv:"FILE" ~doc:"Write the data trace here (implies --run).")
  in
  let run path execute disasm no_bounds itrace_out dtrace_out =
    let source =
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let compiled = Mc_codegen.compile ~bounds_checks:(not no_bounds) source in
    Format.printf "compiled %d instructions, %d global words@."
      (Array.length compiled.Mc_codegen.program)
      compiled.Mc_codegen.globals_words;
    if disasm then
      Array.iteri
        (fun pc instr -> Format.printf "%4d  %a@." pc Isa.pp_instr instr)
        compiled.Mc_codegen.program;
    if execute || itrace_out <> None || dtrace_out <> None then begin
      let itrace = Option.map (fun _ -> Trace.create ()) itrace_out in
      let dtrace = Option.map (fun _ -> Trace.create ()) dtrace_out in
      let result = Mc_codegen.run ?itrace ?dtrace compiled in
      Format.printf "halted after %d steps; main returned %d@." result.Machine.steps
        (Machine.return_value result);
      let dump out trace =
        match (out, trace) with
        | Some p, Some t ->
          or_exit (Trace_io.save p t);
          Format.printf "wrote %d references to %s@." (Trace.length t) p
        | _ -> ()
      in
      dump itrace_out itrace;
      dump dtrace_out dtrace
    end
  in
  let term =
    Term.(const run $ file_arg $ run_flag $ disasm_flag $ no_bounds_flag $ itrace_arg $ dtrace_arg)
  in
  Cmd.v (Cmd.info "cc" ~doc:"Compile a MiniC source file for the VM.") term

(* -- run -- *)

let run_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s" ~doc:"Assembly source file.")
  in
  let steps_arg =
    Arg.(value & opt int 30_000_000 & info [ "steps" ] ~docv:"N" ~doc:"Step budget.")
  in
  let mem_arg =
    Arg.(value & opt int 65536 & info [ "mem" ] ~docv:"WORDS" ~doc:"Data memory size in words.")
  in
  let itrace_arg =
    Arg.(value & opt (some string) None & info [ "itrace" ] ~docv:"FILE" ~doc:"Write the instruction trace here.")
  in
  let dtrace_arg =
    Arg.(value & opt (some string) None & info [ "dtrace" ] ~docv:"FILE" ~doc:"Write the data trace here.")
  in
  let regs_arg =
    Arg.(value & flag & info [ "regs" ] ~doc:"Dump all registers after the run.")
  in
  let run path steps mem itrace_out dtrace_out regs =
    let items = Asm_parser.parse_file path in
    let program = Asm.assemble items in
    let itrace = Option.map (fun _ -> Trace.create ()) itrace_out in
    let dtrace = Option.map (fun _ -> Trace.create ()) dtrace_out in
    let result = Machine.run ~mem_words:mem ~max_steps:steps ?itrace ?dtrace program in
    Format.printf "halted after %d steps; $v0 = %d@." result.Machine.steps
      (Machine.return_value result);
    if regs then
      Array.iteri
        (fun r v -> if v <> 0 then Format.printf "  %-5s = %d@." (Isa.register_name r) v)
        result.Machine.registers;
    let dump out trace =
      match (out, trace) with
      | Some path, Some t ->
        or_exit (Trace_io.save path t);
        Format.printf "wrote %d references to %s@." (Trace.length t) path
      | _ -> ()
    in
    dump itrace_out itrace;
    dump dtrace_out dtrace
  in
  let term =
    Term.(const run $ file_arg $ steps_arg $ mem_arg $ itrace_arg $ dtrace_arg $ regs_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Assemble and execute a .s file on the VM.") term

let list_cmd =
  let run () =
    List.iter
      (fun (b : Workload.t) -> Format.printf "%-10s %s@." b.Workload.name b.Workload.description)
      (Registry.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled PowerStone-style benchmarks.") Term.(const run $ const ())

(* -- route -- *)

let route_cmd =
  let listen_arg =
    Arg.(
      value
      & opt string "127.0.0.1:7700"
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Address to serve clients on: $(i,HOST:PORT) or a Unix socket path.")
  in
  let backend_arg =
    Arg.(
      value & opt_all string []
      & info [ "backend" ] ~docv:"ADDR"
          ~doc:
            "A $(b,dse serve) backend ($(i,HOST:PORT) or Unix socket path). Repeat once per \
             node; traces are consistent-hashed on their fingerprint across the set.")
  in
  let forwarders_arg =
    Arg.(
      value & opt int 8
      & info [ "forwarders" ] ~docv:"N"
          ~doc:"Connection handler threads; the maximum number of concurrently routed requests.")
  in
  let max_pending_arg =
    Arg.(
      value & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Accepted connections queued beyond the forwarders before refusing (exit 6).")
  in
  let replicas_arg =
    Arg.(
      value & opt int 64
      & info [ "replicas" ] ~docv:"N" ~doc:"Virtual ring points per backend.")
  in
  let connect_timeout_arg =
    Arg.(
      value & opt float 2.0
      & info [ "connect-timeout" ] ~docv:"SECONDS"
          ~doc:"Bound on establishing a backend connection before failing over.")
  in
  let request_timeout_arg =
    Arg.(
      value & opt float 120.0
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt silence bound on a forwarded request.")
  in
  let hedge_after_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "hedge-after" ] ~docv:"SECONDS"
          ~doc:
            "Duplicate a silent submission to the next live backend after this long; the first \
             answer wins. Default: adaptive, 3x the rolling p99 of forwarded latencies.")
  in
  let health_interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "health-interval" ] ~docv:"SECONDS"
          ~doc:"Target interval between health polls of any one backend.")
  in
  let breaker_failures_arg =
    Arg.(
      value & opt int 3
      & info [ "breaker-failures" ] ~docv:"N"
          ~doc:"Consecutive failures that trip a backend's circuit breaker open.")
  in
  let breaker_cooldown_arg =
    Arg.(
      value & opt float 0.5
      & info [ "breaker-cooldown" ] ~docv:"SECONDS"
          ~doc:
            "Base open-state cooldown before a half-open probe; doubles per consecutive trip, \
             capped at 10 s.")
  in
  let spill_threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "spill-threshold" ] ~docv:"RATIO"
          ~doc:
            "Spill a submission off its owning backend when the owner's last-polled \
             queue-depth per worker exceeds this ratio, routing to the least-loaded live node \
             instead. Default: never spill.")
  in
  let health_flag =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "One-shot cluster health: query every $(b,--backend)'s health plane directly, \
             print the aggregated view, and exit (9 if no backend answered). No gateway is \
             started.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"With $(b,--health): emit one machine-readable JSON object.")
  in
  let admin_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "admin" ] ~docv:"VERB"
          ~doc:
            "One-shot fleet-membership operation instead of running a gateway. Contacts are \
             the $(b,--backend) list. $(i,VERB) is one of: $(b,ring-status) (print every \
             contact's fleet view); $(b,join) $(i,ADDR) (add a running daemon to the ring — \
             its range is pulled by anti-entropy while it serves); $(b,drain) $(i,ADDR) \
             (graceful decommission: the node sheds new work, hands its warm entries to the \
             post-drain owners, and leaves — zero kernel re-runs); $(b,leave) $(i,ADDR) \
             (remove a dead node without contacting it); $(b,set-replication) $(i,R) (change \
             the fleet's replication factor; a shrink triggers replica GC). Each change \
             publishes a version-bumped ring config; stragglers catch up via the stale-ring \
             fence.")
  in
  let gateway_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "gateway" ] ~docv:"ADDR"
          ~doc:
            "With $(b,--admin): a running $(b,dse route) gateway to update too. It is always \
             updated last, so a draining node keeps serving its cache until routing moves.")
  in
  let admin_operand_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ARG"
          ~doc:"Operand of $(b,--admin): the node address, or the replication factor.")
  in
  let run_admin backends gateway verb operand =
    if backends = [] then usage_fail "at least one --backend contact is required";
    let contacts = backends in
    let report_failed failed =
      List.iter
        (fun (target, e) ->
          Format.eprintf "dse: warning: push to %s failed: %s@." target (Dse_error.to_string e))
        failed
    in
    let print_config (c : Protocol.ring_config) =
      Format.printf "ring_version %d@." c.Protocol.ring_version;
      Format.printf "replication %d@." c.Protocol.replication;
      Format.printf "nodes %s@." (String.concat "," c.Protocol.nodes)
    in
    let need what = match operand with Some v -> v | None -> usage_fail what in
    match verb with
    | "ring-status" ->
      let any_up = ref false in
      List.iter
        (fun target ->
          match Admin.ring_status target with
          | Ok (c, draining, _) ->
            any_up := true;
            Format.printf "%s v%d nodes=%d replication=%d%s@." target c.Protocol.ring_version
              (List.length c.Protocol.nodes)
              c.Protocol.replication
              (if draining then " draining" else "")
          | Error e -> Format.printf "%s down (%s)@." target (Dse_error.to_string e))
        contacts;
      if not !any_up then
        or_exit
          (Error
             (Dse_error.Backend_unavailable
                { node = List.hd contacts; attempts = List.length contacts }))
    | "join" ->
      let node = need "join needs the joining node's ADDR" in
      let config, failed = or_exit (Admin.join ?gateway ~contacts node) in
      report_failed failed;
      Format.printf "joined %s@." node;
      print_config config
    | "drain" ->
      let node = need "drain needs the leaving node's ADDR" in
      let config, pushed, failed = or_exit (Admin.drain ?gateway ~contacts node) in
      report_failed failed;
      Format.printf "drained %s; %d warm record(s) accepted by the new owners@." node pushed;
      print_config config
    | "leave" ->
      let node = need "leave needs the dead node's ADDR" in
      let config, failed = or_exit (Admin.leave ?gateway ~contacts node) in
      report_failed failed;
      Format.printf "removed %s@." node;
      print_config config
    | "set-replication" ->
      let r = need "set-replication needs the new factor" in
      let r =
        match int_of_string_opt r with
        | Some r -> r
        | None -> usage_fail "set-replication needs an integer factor"
      in
      let config, failed = or_exit (Admin.set_replication ?gateway ~contacts r) in
      report_failed failed;
      print_config config
    | v -> usage_fail (Printf.sprintf "unknown --admin verb %s" v)
  in
  (* One-shot aggregated cluster health, for operators and the CI smoke:
     each backend is asked directly (no gateway in the path), so a dead
     node shows as down while its survivors still report. *)
  let cluster_health backends json =
    let views =
      List.map
        (fun addr ->
          match Client.health ~socket:addr with
          | Ok h -> (addr, Ok h)
          | Error e -> (addr, Error (Dse_error.to_string e)))
        backends
    in
    let up = List.filter_map (function _, Ok h -> Some h | _, Error _ -> None) views in
    let sum f = List.fold_left (fun acc h -> acc + f h) 0 up in
    if json then begin
      let backend_json (addr, view) =
        match view with
        | Ok (h : Protocol.health) ->
          Printf.sprintf
            "{\"backend\":%S,\"up\":true,\"node_id\":%S,\"start_epoch\":%.3f,\"uptime\":%.3f,\
             \"workers\":%d,\"queue_depth\":%d,\"jobs_completed\":%d,\"cache_hits\":%d,\
             \"cache_entries\":%d,\"wal_appends\":%d,\"peer_hits\":%d,\"replicated_in\":%d,\
             \"replicated_out\":%d,\"replication_lag\":%d,\"replication_dropped\":%d,\
             \"ring_version\":%d,\"draining\":%b,\"replica_gc_dropped\":%d}"
            addr h.Protocol.node_id h.Protocol.start_epoch h.Protocol.uptime
            (List.length h.Protocol.workers)
            h.Protocol.queue_depth h.Protocol.jobs_completed h.Protocol.cache_hits
            h.Protocol.cache_entries h.Protocol.wal_appends h.Protocol.peer_hits
            h.Protocol.replicated_in h.Protocol.replicated_out h.Protocol.replication_lag
            h.Protocol.replication_dropped h.Protocol.ring_version h.Protocol.draining
            h.Protocol.replica_gc_dropped
        | Error message -> Printf.sprintf "{\"backend\":%S,\"up\":false,\"error\":%S}" addr message
      in
      Printf.printf
        "{\"backends\":[%s],\"up\":%d,\"total\":%d,\"jobs_completed\":%d,\"cache_entries\":%d,\
         \"peer_hits\":%d,\"replicated_in\":%d,\"replicated_out\":%d,\"replication_dropped\":%d,\
         \"replica_gc_dropped\":%d}\n"
        (String.concat "," (List.map backend_json views))
        (List.length up) (List.length views)
        (sum (fun h -> h.Protocol.jobs_completed))
        (sum (fun h -> h.Protocol.cache_entries))
        (sum (fun h -> h.Protocol.peer_hits))
        (sum (fun h -> h.Protocol.replicated_in))
        (sum (fun h -> h.Protocol.replicated_out))
        (sum (fun h -> h.Protocol.replication_dropped))
        (sum (fun h -> h.Protocol.replica_gc_dropped))
    end
    else begin
      List.iter
        (fun (addr, view) ->
          match view with
          | Ok (h : Protocol.health) ->
            Format.printf
              "backend %s up node_id=%s uptime=%.1f workers=%d queue_depth=%d \
               jobs_completed=%d cache_entries=%d peer_hits=%d replicated_in=%d \
               replicated_out=%d replication_lag=%d replication_dropped=%d ring_version=%d%s \
               replica_gc_dropped=%d@."
              addr h.Protocol.node_id h.Protocol.uptime
              (List.length h.Protocol.workers)
              h.Protocol.queue_depth h.Protocol.jobs_completed h.Protocol.cache_entries
              h.Protocol.peer_hits h.Protocol.replicated_in h.Protocol.replicated_out
              h.Protocol.replication_lag h.Protocol.replication_dropped h.Protocol.ring_version
              (if h.Protocol.draining then " draining" else "")
              h.Protocol.replica_gc_dropped
          | Error message -> Format.printf "backend %s down (%s)@." addr message)
        views;
      Format.printf
        "cluster up=%d/%d jobs_completed=%d cache_entries=%d peer_hits=%d replicated_in=%d \
         replicated_out=%d replication_dropped=%d replica_gc_dropped=%d@."
        (List.length up) (List.length views)
        (sum (fun h -> h.Protocol.jobs_completed))
        (sum (fun h -> h.Protocol.cache_entries))
        (sum (fun h -> h.Protocol.peer_hits))
        (sum (fun h -> h.Protocol.replicated_in))
        (sum (fun h -> h.Protocol.replicated_out))
        (sum (fun h -> h.Protocol.replication_dropped))
        (sum (fun h -> h.Protocol.replica_gc_dropped))
    end;
    (* durability is degrading if pushes are being dropped: one line on
       stderr so scripts parsing stdout JSON still see it *)
    let dropped = sum (fun h -> h.Protocol.replication_dropped) in
    if dropped > 0 then
      Format.eprintf
        "dse: warning: %d replication push(es) dropped across the fleet — a slow or dead peer \
         is degrading durability@."
        dropped;
    if up = [] then
      or_exit
        (Error
           (Dse_error.Backend_unavailable
              { node = List.hd backends; attempts = List.length backends }))
  in
  let run listen backends forwarders max_pending replicas connect_timeout request_timeout
      hedge_after health_interval breaker_failures breaker_cooldown spill_threshold health json
      admin gateway operand =
    if backends = [] then usage_fail "at least one --backend is required";
    match admin with
    | Some verb -> run_admin backends gateway verb operand
    | None ->
    if health then cluster_health backends json
    else
      let config =
        {
          Router.default_config with
          Router.listen;
          backends;
          replicas;
          forwarders;
          max_pending;
          connect_timeout;
          request_timeout;
          hedge =
            (match hedge_after with None -> Router.Adaptive | Some s -> Router.Fixed s);
          health_interval;
          breaker =
            {
              Breaker.default_config with
              Breaker.failure_threshold = breaker_failures;
              cooldown_base = breaker_cooldown;
            };
          spill_threshold;
        }
      in
      let router = or_exit (Router.create config) in
      Router.install_signal_handlers router;
      Format.eprintf
        "dse: routing on %s across %d backend(s) (forwarders=%d, hedge=%s%s); SIGTERM drains@."
        listen (List.length backends) forwarders
        (match hedge_after with None -> "adaptive" | Some s -> Printf.sprintf "%gs" s)
        (match spill_threshold with
        | None -> ""
        | Some r -> Printf.sprintf ", spill>%g jobs/worker" r);
      Router.run router
  in
  let term =
    Term.(const run $ listen_arg $ backend_arg $ forwarders_arg $ max_pending_arg $ replicas_arg
          $ connect_timeout_arg $ request_timeout_arg $ hedge_after_arg $ health_interval_arg
          $ breaker_failures_arg $ breaker_cooldown_arg $ spill_threshold_arg $ health_flag
          $ json_flag $ admin_arg $ gateway_arg $ admin_operand_arg)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run a gateway that consistent-hashes submissions across several $(b,dse serve) \
          backends, with health-driven failover, per-backend circuit breakers, and hedged \
          retries — or, with $(b,--admin), perform a one-shot fleet-membership operation \
          (join, drain, leave, ring-status, set-replication). Clients point $(b,dse submit \
          --addr) at it; results are bit-identical to $(b,dse explore).")
    term

(* -- chaos -- *)

(* One scripted membership/fault event, fired at a wall-clock offset
   from harness start. *)
type chaos_action =
  | C_kill of int
  | C_respawn of int
  | C_join of int
  | C_drain of int
  | C_leave of int
  | C_fault of string

type chaos_node = {
  c_index : int;
  c_addr : string;  (* TCP address: the node id and ring name *)
  c_sock : string;
  c_wal : string;
  c_log : string;
  mutable c_pid : int option;
  mutable c_member : bool;
}

let chaos_cmd =
  let schedule_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:
            "Event script: one $(i,AT ACTION [ARG]) per line ($(i,AT) in seconds from start; \
             $(b,#) comments). Actions: $(b,kill) $(i,I) (SIGKILL node I), $(b,respawn) \
             $(i,I), $(b,join) $(i,I) (start node I and add it to the ring), $(b,drain) \
             $(i,I) (graceful decommission), $(b,leave) $(i,I) (remove without contact), \
             $(b,fault) $(i,SPEC) (arm the harness-side injection hook, e.g. \
             $(i,net:drop:3)).")
  in
  let nodes_arg =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Initial fleet size.")
  in
  let base_port_arg =
    Arg.(
      value & opt int 7760
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:"Node $(i,I) listens on 127.0.0.1:PORT+I; the gateway on PORT-1.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed; the trace mix is a pure function of it.")
  in
  let chaos_replication_arg =
    Arg.(value & opt int 2 & info [ "replication" ] ~docv:"R" ~doc:"Fleet replication factor.")
  in
  let requests_arg =
    Arg.(
      value & opt int 40
      & info [ "requests" ] ~docv:"N"
          ~doc:"Minimum workload submissions (the loop also runs until the schedule is drained).")
  in
  let keep_arg =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep the scratch directory (WALs, per-node logs) for inspection.")
  in
  let parse_schedule path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec read lineno acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line ->
            let line =
              match String.index_opt line '#' with
              | Some i -> String.sub line 0 i
              | None -> line
            in
            let tokens =
              List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
            in
            let bad what =
              usage_fail (Printf.sprintf "%s:%d: %s" path lineno what)
            in
            let index s =
              match int_of_string_opt s with
              | Some i when i >= 0 -> i
              | _ -> bad (Printf.sprintf "bad node index %S" s)
            in
            let event =
              match tokens with
              | [] -> None
              | at :: action -> (
                let at =
                  match float_of_string_opt at with
                  | Some t when t >= 0. -> t
                  | _ -> bad (Printf.sprintf "bad offset %S" at)
                in
                match action with
                | [ "kill"; i ] -> Some (at, C_kill (index i))
                | [ "respawn"; i ] -> Some (at, C_respawn (index i))
                | [ "join"; i ] -> Some (at, C_join (index i))
                | [ "drain"; i ] -> Some (at, C_drain (index i))
                | [ "leave"; i ] -> Some (at, C_leave (index i))
                | [ "fault"; spec ] ->
                  if Fault.parse spec = None then bad (Printf.sprintf "bad fault spec %S" spec)
                  else Some (at, C_fault spec)
                | _ -> bad "unknown action")
            in
            read (lineno + 1) (match event with Some e -> e :: acc | None -> acc)
        in
        let events = read 1 [] in
        (* stable sort: same-offset events fire in file order *)
        List.stable_sort (fun (a, _) (b, _) -> compare a b) events)
  in
  let run schedule nodes base_port seed replication requests keep =
    if nodes < 2 then usage_fail "nodes must be >= 2";
    if replication < 1 then usage_fail "replication must be >= 1";
    if requests < 1 then usage_fail "requests must be >= 1";
    let events = parse_schedule schedule in
    let max_index =
      List.fold_left
        (fun m (_, a) ->
          match a with
          | C_kill i | C_respawn i | C_join i | C_drain i | C_leave i -> max m i
          | C_fault _ -> m)
        (nodes - 1) events
    in
    let dir =
      let d = Filename.temp_file "dse_chaos" "" in
      Sys.remove d;
      Unix.mkdir d 0o700;
      d
    in
    let fleet =
      Array.init (max_index + 1) (fun i ->
          {
            c_index = i;
            c_addr = Printf.sprintf "127.0.0.1:%d" (base_port + i);
            c_sock = Filename.concat dir (Printf.sprintf "node-%d.sock" i);
            c_wal = Filename.concat dir (Printf.sprintf "node-%d.wal" i);
            c_log = Filename.concat dir (Printf.sprintf "node-%d.log" i);
            c_pid = None;
            c_member = i < nodes;
          })
    in
    let gateway = Printf.sprintf "127.0.0.1:%d" (base_port - 1) in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let spawn argv logf =
      let log_fd =
        Unix.openfile logf [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o600
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list argv) devnull log_fd log_fd
      in
      Unix.close log_fd;
      pid
    in
    let spawn_node ~peers n =
      let argv =
        [
          "dse"; "serve"; "--socket"; n.c_sock; "--tcp"; n.c_addr; "--node-id"; n.c_addr;
          "--workers"; "2"; "--wal"; n.c_wal; "--anti-entropy"; "--replication";
          string_of_int replication;
        ]
        @ List.concat_map (fun p -> [ "--peer"; p ]) peers
      in
      n.c_pid <- Some (spawn argv n.c_log)
    in
    let kill_node n =
      match n.c_pid with
      | None -> ()
      | Some pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        n.c_pid <- None;
        if Sys.file_exists n.c_sock then Sys.remove n.c_sock
    in
    let wait_ready what addr =
      let deadline = Unix.gettimeofday () +. 15. in
      let rec go () =
        match Client.ping ~socket:addr with
        | Ok () -> ()
        | Error _ ->
          if Unix.gettimeofday () > deadline then
            usage_fail (Printf.sprintf "%s (%s) did not come up within 15 s" what addr)
          else begin
            Unix.sleepf 0.05;
            go ()
          end
      in
      go ()
    in
    let live_members () =
      Array.to_list fleet
      |> List.filter_map (fun n ->
             if n.c_member && n.c_pid <> None then Some n.c_addr else None)
    in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
    (* drain handoff latency and join warm-up, for the summary line *)
    let drain_pushed = ref 0 in
    let drain_latency = ref 0. in
    let join_warmup = ref 0. in
    let fire = function
      | C_kill i ->
        Format.eprintf "chaos: kill -9 node %d@." i;
        kill_node fleet.(i)
      | C_respawn i ->
        let n = fleet.(i) in
        if n.c_pid <> None then fail "respawn %d: node is already running" i
        else begin
          Format.eprintf "chaos: respawn node %d@." i;
          let peers = List.filter (fun a -> a <> n.c_addr) (live_members ()) in
          spawn_node ~peers n;
          wait_ready "respawned node" n.c_addr;
          (* hand the respawn the fleet's current view so it does not
             wait for the fence to teach it *)
          match Admin.fetch_config peers with
          | Ok config -> ignore (Admin.push_config config [ n.c_addr ])
          | Error _ -> ()
        end
      | C_join i ->
        let n = fleet.(i) in
        if n.c_member then fail "join %d: node is already a member" i
        else begin
          Format.eprintf "chaos: join node %d@." i;
          (* a joiner boots standalone (unfenced v0) and learns the ring
             from the published config; anti-entropy then pulls its range *)
          spawn_node ~peers:[] n;
          wait_ready "joining node" n.c_addr;
          let t0 = Unix.gettimeofday () in
          match Admin.join ~gateway ~contacts:(live_members ()) n.c_addr with
          | Ok (config, failed) ->
            n.c_member <- true;
            List.iter
              (fun (target, e) ->
                fail "join %d: push to %s failed: %s" i target (Dse_error.to_string e))
              failed;
            (* warm-up: the joiner has adopted when its health plane
               reports the published epoch *)
            let deadline = Unix.gettimeofday () +. 10. in
            let rec warm () =
              match Client.health ~socket:n.c_addr with
              | Ok h when h.Protocol.ring_version >= config.Protocol.ring_version ->
                join_warmup := Unix.gettimeofday () -. t0
              | _ ->
                if Unix.gettimeofday () > deadline then
                  fail "join %d: node never adopted v%d" i config.Protocol.ring_version
                else begin
                  Unix.sleepf 0.05;
                  warm ()
                end
            in
            warm ()
          | Error e -> fail "join %d: %s" i (Dse_error.to_string e)
        end
      | C_drain i ->
        let n = fleet.(i) in
        Format.eprintf "chaos: drain node %d@." i;
        let t0 = Unix.gettimeofday () in
        (match Admin.drain ~gateway ~contacts:(live_members ()) n.c_addr with
        | Ok (_, pushed, failed) ->
          n.c_member <- false;
          drain_pushed := !drain_pushed + pushed;
          drain_latency := Unix.gettimeofday () -. t0;
          List.iter
            (fun (target, e) ->
              fail "drain %d: push to %s failed: %s" i target (Dse_error.to_string e))
            failed
        | Error e -> fail "drain %d: %s" i (Dse_error.to_string e))
      | C_leave i ->
        let n = fleet.(i) in
        Format.eprintf "chaos: leave node %d@." i;
        (match Admin.leave ~gateway ~contacts:(live_members ()) n.c_addr with
        | Ok (_, failed) ->
          n.c_member <- false;
          List.iter
            (fun (target, e) ->
              fail "leave %d: push to %s failed: %s" i target (Dse_error.to_string e))
            failed
        | Error e -> fail "leave %d: %s" i (Dse_error.to_string e))
      | C_fault spec ->
        Format.eprintf "chaos: arming fault %s@." spec;
        ignore (Fault.arm spec)
    in
    let cleanup () =
      Array.iter kill_node fleet;
      if not keep then begin
        Array.iter
          (fun n ->
            List.iter
              (fun f -> if Sys.file_exists f then Sys.remove f)
              [ n.c_sock; n.c_wal; n.c_log ])
          fleet;
        let gwlog = Filename.concat dir "gateway.log" in
        if Sys.file_exists gwlog then Sys.remove gwlog;
        (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      end
      else Format.eprintf "chaos: scratch kept in %s@." dir
    in
    let gateway_pid = ref None in
    Fun.protect
      ~finally:(fun () ->
        (match !gateway_pid with
        | Some pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        | None -> ());
        cleanup ();
        Unix.close devnull)
      (fun () ->
        (* boot the initial fleet, fully peered, and the gateway *)
        let initial = List.filteri (fun i _ -> i < nodes) (Array.to_list fleet) in
        List.iter
          (fun n ->
            let peers =
              List.filter_map
                (fun p -> if p.c_addr <> n.c_addr then Some p.c_addr else None)
                initial
            in
            spawn_node ~peers n)
          initial;
        List.iter (fun n -> wait_ready "fleet node" n.c_addr) initial;
        let gw_argv =
          [
            "dse"; "route"; "--listen"; gateway; "--request-timeout"; "30";
            "--health-interval"; "0.3"; "--breaker-cooldown"; "0.2";
          ]
          @ List.concat_map (fun n -> [ "--backend"; n.c_addr ]) initial
        in
        gateway_pid := Some (spawn gw_argv (Filename.concat dir "gateway.log"));
        wait_ready "gateway" gateway;
        (* the workload: a fixed mix of traces, every reply diffed
           structurally against a locally computed oracle *)
        let mix = 12 in
        let trace_of i = Synthetic.zipfian ~seed:(seed + (i mod mix)) ~span:2048 ~skew:1.1 ~length:800 in
        let name_of i = Printf.sprintf "chaos-%d" (seed + (i mod mix)) in
        let oracle = Hashtbl.create mix in
        let expected i =
          let key = i mod mix in
          match Hashtbl.find_opt oracle key with
          | Some o -> o
          | None ->
            let o = Protocol.Table (Analytical_dse.run ~name:(name_of i) (trace_of i)) in
            Hashtbl.add oracle key o;
            o
        in
        let submitted = ref 0 and identical = ref 0 and wrong = ref 0 and errored = ref 0 in
        let verified = Hashtbl.create mix in
        let submit_one i =
          incr submitted;
          match
            Client.submit ~socket:gateway ~retries:8 ~retry_base:0.1 ~retry_cap:20.
              ~name:(name_of i) (trace_of i)
          with
          | Ok payload ->
            if payload.Protocol.outcome = expected i then begin
              incr identical;
              Hashtbl.replace verified (i mod mix) ()
            end
            else begin
              incr wrong;
              fail "request %d: reply differs from direct explore" i
            end
          | Error e ->
            incr errored;
            fail "request %d: %s" i (Dse_error.to_string e)
        in
        let start = Unix.gettimeofday () in
        let pending = ref events in
        let rec fire_due () =
          match !pending with
          | (at, action) :: rest when Unix.gettimeofday () -. start >= at ->
            pending := rest;
            fire action;
            fire_due ()
          | _ -> ()
        in
        let i = ref 0 in
        while !pending <> [] || !submitted < requests do
          fire_due ();
          submit_one !i;
          incr i;
          Unix.sleepf 0.05
        done;
        (* -- post-schedule assertions -- *)
        let members = live_members () in
        if members = [] then fail "no live members at end of schedule"
        else begin
          (* 1. every live member settles on one ring version *)
          let deadline = Unix.gettimeofday () +. 20. in
          let rec settle () =
            let views = List.filter_map (fun a ->
                match Admin.ring_status a with Ok (c, _, _) -> Some c | Error _ -> None)
                members
            in
            let versions =
              List.sort_uniq compare
                (List.map (fun (c : Protocol.ring_config) -> c.Protocol.ring_version) views)
            in
            if List.length views = List.length members && List.length versions = 1 then
              List.hd views
            else if Unix.gettimeofday () > deadline then begin
              fail "ring versions never converged (saw %s)"
                (String.concat ","
                   (List.map string_of_int versions));
              List.hd views
            end
            else begin
              Unix.sleepf 0.1;
              settle ()
            end
          in
          let config = settle () in
          (* 2. digests converge and replica GC has left no stray copies:
             every key lives on exactly its first-R ring walk *)
          let ring = Ring.create config.Protocol.nodes in
          let owners key =
            let r = min config.Protocol.replication (List.length config.Protocol.nodes) in
            List.filteri (fun i _ -> i < r)
              (Ring.successors ring key.Result_cache.fingerprint)
          in
          let digest addr =
            match
              Client.exchange addr (Protocol.Cache_query { ring_version = 0; keys = [] })
            with
            | Ok (Protocol.Cache_reply { keys; _ }) -> Some keys
            | Ok _ | Error _ -> None
          in
          let deadline = Unix.gettimeofday () +. 20. in
          let rec converge () =
            let digests =
              List.filter_map (fun a -> Option.map (fun k -> (a, k)) (digest a)) members
            in
            if List.length digests <> List.length members then
              if Unix.gettimeofday () > deadline then fail "digest exchange failed"
              else begin Unix.sleepf 0.1; converge () end
            else begin
              let union =
                List.sort_uniq compare (List.concat_map snd digests)
              in
              let missing =
                List.concat_map
                  (fun key ->
                    List.filter_map
                      (fun owner ->
                        match List.assoc_opt owner digests with
                        | Some keys when List.mem key keys -> None
                        | Some _ -> Some (owner, key)
                        | None -> None)
                      (owners key))
                  union
              in
              let strays =
                List.concat_map
                  (fun (addr, keys) ->
                    List.filter_map
                      (fun key ->
                        if List.mem addr (owners key) then None else Some (addr, key))
                      keys)
                  digests
              in
              if missing = [] && strays = [] then ()
              else if Unix.gettimeofday () > deadline then begin
                if missing <> [] then
                  fail "%d replica(s) missing after convergence window" (List.length missing);
                if strays <> [] then
                  fail "%d stray cop(ies) outside placement (replica GC incomplete)"
                    (List.length strays)
              end
              else begin
                Unix.sleepf 0.1;
                converge ()
              end
            end
          in
          converge ();
          (* 3. repeats of everything verified earlier are answered from
             warm state: bit-identical, cache-hit, zero kernel re-runs *)
          let jobs_sum () =
            List.fold_left
              (fun acc a ->
                match Client.health ~socket:a with
                | Ok h -> acc + h.Protocol.jobs_completed
                | Error _ -> acc)
              0 members
          in
          let before = jobs_sum () in
          Hashtbl.iter
            (fun key () ->
              match
                Client.submit ~socket:gateway ~retries:4 ~retry_base:0.1 ~retry_cap:10.
                  ~name:(name_of key) (trace_of key)
              with
              | Ok payload ->
                if payload.Protocol.outcome <> expected key then
                  fail "repeat %d: reply differs from direct explore" key;
                if not payload.Protocol.cache_hit then
                  fail "repeat %d: served cold (expected the fleet to stay warm)" key
              | Error e -> fail "repeat %d: %s" key (Dse_error.to_string e))
            verified;
          let after = jobs_sum () in
          if after <> before then
            fail "%d kernel re-run(s) on warm repeats (expected zero)" (after - before);
          Format.printf
            "chaos: %d submission(s), %d identical, %d mismatched, %d errored@." !submitted
            !identical !wrong !errored;
          Format.printf
            "chaos: final ring v%d (%d node(s), replication %d); drain handoff %.3fs \
             (%d record(s)), join warm-up %.3fs@."
            config.Protocol.ring_version
            (List.length config.Protocol.nodes)
            config.Protocol.replication !drain_latency !drain_pushed !join_warmup
        end;
        match !failures with
        | [] -> Format.printf "chaos: all assertions held@."
        | fs ->
          List.iter (fun m -> Format.eprintf "chaos: FAIL %s@." m) (List.rev fs);
          exit 1)
  in
  let term =
    Term.(const run $ schedule_arg $ nodes_arg $ base_port_arg $ seed_arg
          $ chaos_replication_arg $ requests_arg $ keep_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Drive a live multi-process fleet through a scripted sequence of kills, respawns, \
          joins, drains and injected network faults while submitting a seeded workload \
          through the gateway — asserting every reply stays bit-identical to $(b,dse \
          explore), warm repeats run zero kernels, and the fleet's caches converge to exactly \
          the post-schedule placement.")
    term

let main =
  let info =
    Cmd.info "dse" ~version:"1.0.0"
      ~doc:"Analytical design space exploration of caches for embedded systems."
  in
  Cmd.group info
    [
      stats_cmd; explore_cmd; simulate_cmd; compare_cmd; gen_cmd; synth_cmd; reduce_cmd;
      pareto_cmd; disasm_cmd; codesign_cmd; run_cmd; cc_cmd; list_cmd; serve_cmd; submit_cmd;
      route_cmd; chaos_cmd;
    ]

let () =
  Fault.install_from_env ();
  match Cmd.eval_value ~catch:false main with
  | Ok _ -> ()
  | Error _ -> exit 2 (* cmdliner usage/parse error *)
  | exception Dse_error.Error e ->
    Format.eprintf "dse: %s@." (Dse_error.to_string e);
    exit (Dse_error.exit_code e)
  | exception Sys_error msg ->
    Format.eprintf "dse: %s@." msg;
    exit 3
  | exception Unix.Unix_error (err, fn, _) ->
    Format.eprintf "dse: %s: %s@." fn (Unix.error_message err);
    exit 3
  | exception Machine.Fault msg ->
    Format.eprintf "dse: machine fault: %s@." msg;
    exit 5
  | exception Failure msg ->
    Format.eprintf "dse: %s@." msg;
    exit 5
  | exception Invalid_argument msg ->
    Format.eprintf "dse: internal error: %s@." msg;
    exit 5
