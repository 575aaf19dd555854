(* The repository benchmark. One run measures one workload against the
   real `dse` binary for a fixed window and prints, as its last stdout
   line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics untraced (--trace 0), the per-layer metrics traced
   (--trace 1). Every answer is checked against an in-process oracle.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
            --dse PATH [--nproc N] [--size full|tiny] [--inject-wrong] *)

type size = Full | Tiny

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  dse : string;
  nproc : int;
  size : size;
  inject_wrong : bool;
}

let workloads = [ "explore_zipf"; "serve_misses" ]

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let dse = ref "" and nproc = ref 0 and size = ref "full" and inject = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--dse", Arg.Set_string dse, "PATH the dse binary under test");
      ("--nproc", Arg.Set_int nproc, "N usable cores, recorded in the context");
      ("--size", Arg.Set_string size, "full|tiny input sizes (tiny: smoke check)");
      ("--inject-wrong", Arg.Set inject, " corrupt one expected answer (smoke check)");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1 --dse PATH" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  if not (List.mem !workload workloads) then fail ("unknown workload " ^ !workload);
  if !seed < 0 then fail "--seed must be >= 0";
  if not (!seconds > 0.) then fail "--seconds must be > 0";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (Sys.file_exists !dse) then fail ("no dse binary at " ^ !dse);
  let size = match !size with "full" -> Full | "tiny" -> Tiny | s -> fail ("bad --size " ^ s) in
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    dse = !dse;
    nproc = !nproc;
    size;
    inject_wrong = !inject;
  }

(* -- accounting -- *)

type phase = { mutable attempted : int; mutable failed : int }

let warmup = { attempted = 0; failed = 0 }

let timed = { attempted = 0; failed = 0 }

let probe = { attempted = 0; failed = 0 }

let count phase ok =
  phase.attempted <- phase.attempted + 1;
  if not ok then phase.failed <- phase.failed + 1

let problems = ref []

let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let check_stops results = List.iter (function Ok () -> () | Error e -> problem "%s" e) results

(* -- what a workload run hands back -- *)

type input_info = { iname : string; refs : int; distinct : int; bytes : int }

type outcome = {
  samples : Served.sample list;
  window : float;
  setups : float list;
  rss_mb : float;
  counters : Served.counters;
  miss : bool;  (* requests run the kernel (server stages include it) *)
  infos : input_info list;
  extra : (string * Jsonout.t) list;  (* workload-specific report fields *)
}

let info_of (input : Inputs.t) ~bytes =
  {
    iname = input.Inputs.name;
    refs = input.Inputs.stats.Stats.n;
    distinct = input.Inputs.stats.Stats.n_unique;
    bytes;
  }

let frame_size ~dir input =
  String.length
    (Replay.frame_bytes ~dir (fun fd -> Protocol.write_request fd (Replay.request_of input)))

(* A wrong expected answer, for the smoke check that the oracle bites. *)
let corrupt (input : Inputs.t) =
  let expected =
    match input.Inputs.expected with
    | Protocol.Table t -> Protocol.Table { t with Analytical_dse.rows = [] }
    | other -> other
  in
  { input with Inputs.expected }

let window_bounds o =
  let start = Spans.now () in
  let until = start +. o.seconds in
  let traced_from = if o.trace then start +. (o.seconds /. 2.) else infinity in
  (start, until, traced_from)

(* -- trace-mode extras shared by the workloads -- *)

let report_wrong names =
  List.iter (fun name -> problem "replayed answer for %s differs from the oracle" name) names

(* [explore_process o ~dir ~expected input file] is one timed
   `dse explore` run of [file], recorded as an "explore.process" span. *)
let explore_process o ~dir ~expected (input : Inputs.t) file =
  let log = Filename.concat dir "explore.log" in
  let start, stop, ok = Offline.run ~dse:o.dse ~log ~expected file in
  count probe ok;
  Spans.record ~input:input.Inputs.index "explore.process" ~start ~stop

(* Replay every server layer on [inputs], and the file layers, with a
   `dse explore` run per round, on 8 of them spread across the list, so
   the offline split exists for this workload's inputs too. *)
let replay_layers o ~dir (inputs : Inputs.t list) =
  report_wrong (Replay.server_path ~dir inputs);
  let stride = max 1 ((List.length inputs + 7) / 8) in
  let inputs = List.filteri (fun k _ -> k mod stride = 0) inputs in
  let files =
    List.map
      (fun (input : Inputs.t) ->
        let file = Filename.concat dir (Printf.sprintf "in%d.bin" input.Inputs.index) in
        (match Trace_io.save_binary file input.Inputs.trace with
        | Ok () -> ()
        | Error e -> failwith (Dse_error.to_string e));
        (input, file))
      inputs
  in
  let process (input : Inputs.t) file =
    explore_process o ~dir ~expected:(Offline.exact_csv input.Inputs.expected) input file
  in
  report_wrong (Replay.offline_path ~process files)

let probe_direct ~(system : Served.system) inputs =
  let attempted, failed = Served.probe ~system ~budget:4. inputs in
  probe.attempted <- probe.attempted + attempted;
  probe.failed <- probe.failed + failed

(* the most recently answered distinct inputs, at most [n] *)
let recent_inputs (inputs : Inputs.t array) samples n =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (s : Served.sample) ->
      if s.Served.ok && (not (Hashtbl.mem seen s.Served.input)) && Hashtbl.length seen < n then begin
        Hashtbl.replace seen s.Served.input ();
        Some inputs.(s.Served.input)
      end
      else None)
    samples

(* -- explore_zipf -- *)

let explore o ~dir =
  let length = match o.size with Full -> 25_000 | Tiny -> 2_000 in
  let file = Filename.concat dir "zipf.bin" and small = Filename.concat dir "small.bin" in
  Offline.write_zipf ~seed:(Inputs.derive o.seed 0) ~length file;
  Offline.write_zipf ~seed:(Inputs.derive o.seed 1) ~length:64 small;
  let oracle ~index path =
    let input = Inputs.exact_oracle ~index ~name:(Filename.basename path) (Offline.load path) in
    (input, Offline.exact_csv input.Inputs.expected)
  in
  let input, expected = oracle ~index:0 file in
  let _, small_expected = oracle ~index:(-1) small in
  let expected = if o.inject_wrong then expected ^ "corrupted\n" else expected in
  let log = Filename.concat dir "explore.log" in
  (* set-up: the fixed cost of one invocation, on a 64-reference trace *)
  let setups =
    List.init (match o.size with Full -> 31 | Tiny -> 3) (fun _ ->
        let start, stop, ok = Offline.run ~dse:o.dse ~log ~expected:small_expected small in
        count warmup ok;
        stop -. start)
  in
  let start, until, traced_from = window_bounds o in
  let samples = ref [] in
  while Spans.now () < until do
    let s, e, ok = Offline.run ~dse:o.dse ~log ~expected file in
    let traced = s >= traced_from in
    if traced then Spans.record ~input:0 "explore.run" ~start:s ~stop:e;
    samples := { Served.input = 0; latency = e -. s; ok; traced } :: !samples
  done;
  let window = Spans.now () -. start in
  let rss_kb =
    List.fold_left
      (fun acc _ ->
        let status, kb = Procs.run_peak_rss ~log (Offline.argv ~dse:o.dse file) in
        count warmup (status = Unix.WEXITED 0);
        max acc kb)
      0 [ 1; 2 ]
  in
  let counters =
    if not o.trace then Served.zero
    else begin
      (* the offline split of this input, then its served form *)
      let process = explore_process o ~dir ~expected in
      report_wrong (Replay.offline_path ~process [ (input, file) ]);
      report_wrong (Replay.server_path ~dir [ input ]);
      let system = Served.spawn ~dse:o.dse ~dir ~tag:"probe-node" () in
      if not (Served.ready system) then problem "probe daemon never answered";
      count probe
        (Served.check input ~expect_hit:false (Served.submit ~addr:system.Served.addr input));
      let before = Served.health_counters system in
      probe_direct ~system [ input ];
      let counters = Served.diff (Served.health_counters system) before in
      check_stops [ Served.stop system ];
      counters
    end
  in
  let p50 = Quantile.median (List.map (fun (s : Served.sample) -> s.Served.latency) !samples) in
  {
    samples = !samples;
    window;
    setups;
    rss_mb = float_of_int rss_kb /. 1024.;
    counters;
    miss = false;
    infos = [ info_of input ~bytes:(Offline.file_bytes file) ];
    extra = [ ("exact_refs_per_s", Jsonout.Num (float_of_int length /. p50)) ];
  }

(* -- serve_misses -- *)

(* [warm system inputs] submits each input once, expecting a computed
   (not cached) answer. *)
let warm (system : Served.system) inputs =
  List.iter
    (fun (input : Inputs.t) ->
      count warmup
        (Served.check input ~expect_hit:false (Served.submit ~addr:system.Served.addr input)))
    inputs

(* [set_up o ~reps make] starts a fresh daemon [reps] times (once at tiny
   sizes), timing spawn -> first answer; all but the last are stopped
   again. A daemon starts in ~10 ms, so it takes many samples to be
   steady. *)
let set_up o ~reps make =
  let reps = match o.size with Full -> reps | Tiny -> 1 in
  let rec go rep acc =
    let start = Spans.now () in
    let system : Served.system = make rep in
    if not (Served.ready system) then problem "daemon under test never answered";
    let elapsed = Spans.now () -. start in
    if rep + 1 < reps then begin
      check_stops [ Served.stop system ];
      go (rep + 1) (elapsed :: acc)
    end
    else (system, List.rev (elapsed :: acc))
  in
  go 0 []

let serve_misses o ~dir =
  let fill, miss_refs, batch =
    match o.size with Full -> (Result_cache.default_capacity, 20_000, 32) | Tiny -> (4, 1_000, 4)
  in
  let fills =
    List.init fill (fun i ->
        Inputs.exact_oracle ~index:i ~name:(Printf.sprintf "fill%d" i)
          (Inputs.zipf_trace ~seed:(Inputs.derive o.seed (1000 + i)) ~span:256 ~length:256))
  in
  (* Fresh traces, each answered by the oracle before timing, until the
     oracle's kernel time covers both workers for the window with room
     to spare: the daemon cannot answer more than that. *)
  let budget = 1.3 *. 2. *. o.seconds in
  let rec prepare acc spent next =
    if spent >= budget || next - fill >= 4096 then List.rev acc
    else
      let batch_inputs =
        Inputs.parallel_map ~domains:2
          (fun k () ->
            let index = next + k in
            let trace =
              Inputs.zipf_trace ~seed:(Inputs.derive o.seed (100_000 + index)) ~span:1024
                ~length:miss_refs
            in
            let t = Spans.now () in
            let input = Inputs.exact_oracle ~index ~name:(Printf.sprintf "miss%d" index) trace in
            (input, Spans.now () -. t))
          (List.init batch (fun _ -> ()))
      in
      let cost = List.fold_left (fun acc (_, c) -> acc +. c) 0. batch_inputs in
      prepare (List.rev_append (List.map fst batch_inputs) acc) (spent +. cost) (next + batch)
  in
  let misses = prepare [] 0. fill in
  let inputs = Array.of_list (fills @ misses) in
  (* set-up is spawn -> first answer; the cache fill comes after the
     clock stops, so the set-up time is the daemon's own start-up. Half
     the samples are taken before the window and half after it, so that
     one burst of host load cannot make a run's median. *)
  let spawn rep =
    let tag = Printf.sprintf "sut%d" rep in
    Served.spawn ~dse:o.dse ~dir ~tag ~wal:(Filename.concat dir (tag ^ ".wal")) ()
  in
  let system, setups_before = set_up o ~reps:16 spawn in
  warm system fills;
  if o.inject_wrong then inputs.(fill) <- corrupt inputs.(fill);
  let draws = Array.init (List.length misses) (fun k -> fill + k) in
  let before = Served.health_counters system in
  let start, until, traced_from = window_bounds o in
  let samples, finished =
    Served.closed_loop ~clients:2 ~until ~traced_from ~draws (fun ~traced i ->
        let input = inputs.(i) in
        let answer =
          if traced then Served.submit_traced ~root:"request" ~addr:system.Served.addr input
          else Served.submit ~addr:system.Served.addr input
        in
        Served.check input ~expect_hit:false answer)
  in
  let counters = Served.diff (Served.health_counters system) before in
  let rss_mb = Served.peak_rss_mb system in
  if o.trace then begin
    let replayed = recent_inputs inputs samples 24 in
    replay_layers o ~dir replayed;
    probe_direct ~system replayed
  end;
  check_stops [ Served.stop system ];
  let last, setups_after = set_up o ~reps:15 (fun rep -> spawn (16 + rep)) in
  check_stops [ Served.stop last ];
  (* the window ends early only if the daemon outran every prepared input *)
  let exhausted = List.length samples >= Array.length draws && finished < until in
  {
    samples;
    window = finished -. start;
    setups = setups_before @ setups_after;
    rss_mb;
    counters;
    miss = true;
    (* the timed traces, not the cache fill *)
    infos = List.map (fun input -> info_of input ~bytes:(frame_size ~dir input)) misses;
    extra = [ ("fill_entries", Jsonout.Int fill); ("inputs_exhausted", Jsonout.Bool exhausted) ];
  }

(* -- run context -- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_commit () =
  let head = ".git/HEAD" in
  if not (Sys.file_exists head) then Jsonout.Null
  else
    let line = String.trim (read_file head) in
    if String.length line > 5 && String.sub line 0 5 = "ref: " then
      let ref_path = Filename.concat ".git" (String.sub line 5 (String.length line - 5)) in
      if Sys.file_exists ref_path then Jsonout.Str (String.trim (read_file ref_path))
      else Jsonout.Null
    else Jsonout.Str line

(* A digest of the program's sources, which identifies the code under
   test even where the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    if not (Sys.file_exists dir) then []
    else
      Array.to_list (Sys.readdir dir)
      |> List.concat_map (fun entry ->
             let path = Filename.concat dir entry in
             if Sys.is_directory path then files path else [ path ])
  in
  let all = List.sort compare (files "lib" @ files "bin" @ [ "dune-project" ]) in
  let all = List.filter Sys.file_exists all in
  Digest.to_hex (Digest.string (String.concat "\000" (List.map (fun p -> p ^ read_file p) all)))

let context o outcome =
  let infos = outcome.infos in
  let sum f = List.fold_left (fun acc i -> acc + f i) 0 infos in
  Jsonout.Obj
    [
      ("workload", Jsonout.Str o.workload);
      ("seed", Jsonout.Int o.seed);
      ("seconds", Jsonout.Num o.seconds);
      ("trace", Jsonout.Bool o.trace);
      ("size", Jsonout.Str (match o.size with Full -> "full" | Tiny -> "tiny"));
      ("nproc", Jsonout.Int o.nproc);
      ("recommended_domain_count", Jsonout.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Jsonout.Str Sys.ocaml_version);
      ("git_commit", git_commit ());
      ("source_digest", Jsonout.Str (source_digest ()));
      ("inputs", Jsonout.Int (List.length infos));
      ("input_refs", Jsonout.Int (sum (fun i -> i.refs)));
      ("input_distinct", Jsonout.Int (sum (fun i -> i.distinct)));
      ("input_bytes", Jsonout.Int (sum (fun i -> i.bytes)));
      ( "input_list",
        Jsonout.Arr
          (List.map
             (fun i ->
               Jsonout.Obj
                 [
                   ("name", Jsonout.Str i.iname);
                   ("N", Jsonout.Int i.refs);
                   ("N_unique", Jsonout.Int i.distinct);
                   ("bytes", Jsonout.Int i.bytes);
                 ])
             (if List.length infos <= 32 then infos else [])) );
    ]

(* -- metrics -- *)

let metric name unit_ value = (name, Jsonout.Obj [ ("value", Jsonout.Num value); ("unit", Jsonout.Str unit_) ])

let latencies ?traced outcome =
  List.filter_map
    (fun (s : Served.sample) ->
      match traced with
      | Some t when s.Served.traced <> t -> None
      | _ -> Some s.Served.latency)
    outcome.samples

let end_to_end outcome =
  let l = latencies outcome in
  let ok = List.length (List.filter (fun (s : Served.sample) -> s.Served.ok) outcome.samples) in
  [
    metric "latency_p50_ms" "ms" (1000. *. Quantile.percentile 50. l);
    metric "latency_p90_ms" "ms" (1000. *. Quantile.percentile 90. l);
    metric "throughput_rps" "1/s" (float_of_int ok /. outcome.window);
    metric "peak_rss_mb" "MB" outcome.rss_mb;
    metric "setup_s" "s" (Quantile.median outcome.setups);
  ]

let per_layer outcome =
  let overhead_ms =
    1000.
    *. (Quantile.median (latencies ~traced:true outcome)
       -. Quantile.median (latencies ~traced:false outcome))
  in
  let ctx =
    Layers.make (Spans.all ())
      ~requests:(List.map (fun (s : Served.sample) -> s.Served.input) outcome.samples)
  in
  List.map
    (fun (m : Layers.metric) -> metric m.Layers.name m.Layers.unit_ m.Layers.value)
    (Layers.metrics ctx ~miss:outcome.miss ~counters:outcome.counters ~overhead_ms)

let phase_json p =
  Jsonout.Obj
    [
      ("attempted", Jsonout.Int p.attempted);
      ("succeeded", Jsonout.Int (p.attempted - p.failed));
      ("failed", Jsonout.Int p.failed);
    ]

let report outcome =
  let l = latencies outcome in
  let failed_frac =
    if timed.attempted = 0 then 1. else float_of_int timed.failed /. float_of_int timed.attempted
  in
  Jsonout.Obj
    ([
       ("samples", Jsonout.Int (List.length l));
       ("window_s", Jsonout.Num outcome.window);
       ("failed_frac", Jsonout.Num failed_frac);
       ( "phases",
         Jsonout.Obj
           [ ("warmup", phase_json warmup); ("timed", phase_json timed); ("probe", phase_json probe) ]
       );
       ("setup_samples_s", Jsonout.Arr (List.map (fun s -> Jsonout.Num s) outcome.setups));
       ("problems", Jsonout.Arr (List.rev_map (fun s -> Jsonout.Str s) !problems));
     ]
    @ outcome.extra)

(* -- main -- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let () =
  let o = parse_args () in
  let root = ".bench_run" in
  let tag = Printf.sprintf "%s-s%d-t%d" o.workload o.seed (if o.trace then 1 else 0) in
  let dir = Filename.concat root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  mkdir_p dir;
  let bail _ =
    Procs.kill_all ();
    exit 3
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Procs.kill_all;
  Spans.set_enabled o.trace;
  (* a 32 MiB minor heap per domain: the client domains collect rarely,
     so the latencies carry little of the benchmark's own GC *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let outcome =
    match
      match o.workload with
      | "explore_zipf" -> explore o ~dir
      | "serve_misses" -> serve_misses o ~dir
      | w -> invalid_arg w
    with
    | outcome -> outcome
    | exception e ->
      Procs.kill_all ();
      prerr_endline ("bench: " ^ Printexc.to_string e);
      Printf.printf "%s\n"
        (Jsonout.to_string
           (Jsonout.Obj [ ("error", Jsonout.Str (Printexc.to_string e)); ("run_dir", Jsonout.Str dir) ]));
      exit 1
  in
  List.iter (fun (s : Served.sample) -> count timed s.Served.ok) outcome.samples;
  List.iter (fun l -> problem "%s" l) (Procs.leaks ());
  let correct =
    !problems = [] && warmup.failed = 0 && timed.failed = 0 && probe.failed = 0 && timed.attempted > 0
  in
  if o.trace then begin
    let spans_dir = Filename.concat root "spans" in
    mkdir_p spans_dir;
    Spans.write_jsonl (Filename.concat spans_dir (tag ^ ".jsonl")) (Spans.all ())
  end;
  let metrics = if o.trace then per_layer outcome else end_to_end outcome in
  print_endline (Jsonout.to_string (Jsonout.Obj [ ("context", context o outcome) ]));
  print_endline (Jsonout.to_string (Jsonout.Obj [ ("report", report outcome) ]));
  (* a failed run keeps its logs for inspection *)
  if correct then remove_tree dir;
  print_endline
    (Jsonout.to_string
       (Jsonout.Obj
          [
            ("correct", Jsonout.Bool correct);
            ("attempted", Jsonout.Int timed.attempted);
            ("failed", Jsonout.Int timed.failed);
            ("metrics", Jsonout.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
