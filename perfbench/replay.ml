(* In-process replay of the server-side layers on a workload's inputs:
   the frames a client would send are decoded, fingerprinted, looked up,
   answered, encoded, stored and logged exactly as the daemon does it,
   each call inside its own span tagged with the input. The daemon is
   never instrumented; these spans are the per-layer split of what its
   answer time contains. *)

let reps = 3

let request_of (input : Inputs.t) =
  Protocol.Submit
    {
      name = input.Inputs.name;
      trace = Protocol.Full input.Inputs.trace;
      query = Protocol.Percents Inputs.percents;
      method_ = Protocol.Exact Analytical.Arena;
      domains = 1;
      max_level = None;
      deadline = None;
    }

(* The bytes of one frame, as [write] puts them on a descriptor. *)
let frame_bytes ~dir write =
  let path = Filename.concat dir "frame.tmp" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Sys.remove path)
    (fun () ->
      (match write fd with Ok () -> () | Error e -> failwith (Dse_error.to_string e));
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      Procs.read_all fd)

(* [feeding bytes f] runs [f] on the read end of a socketpair while a
   thread writes [bytes] into the other end. *)
let feeding bytes f =
  let r, w = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        (try Transport.write_all w (Bytes.unsafe_of_string bytes) with Unix.Unix_error _ -> ());
        Unix.close w)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Thread.join writer)
    (fun () -> f r)

(* [draining f] runs [f] on the write end of a socketpair while a
   thread reads the other end to EOF. *)
let draining f =
  let r, w = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Thread.create (fun () -> ignore (Procs.read_all r)) () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Thread.join reader;
      Unix.close r)
    (fun () -> f w)

let key_of submission =
  {
    Result_cache.fingerprint = Protocol.submission_fingerprint submission;
    method_tag = Protocol.method_spec_tag (Protocol.Exact Analytical.Arena);
    domains = 1;
    max_level = -1;
  }

(* [server_path ~dir inputs] replays the request path of every
   input [reps] times. It returns the inputs whose replayed answer
   differed from the oracle's (an empty list is the expected case). *)
let server_path ~dir (inputs : Inputs.t list) =
  let lookup = Result_cache.create () in
  List.iter
    (fun (input : Inputs.t) ->
      let key = key_of (Protocol.Full input.Inputs.trace) in
      Result_cache.store lookup key input.Inputs.entry)
    inputs;
  (* a full cache, so every timed store pays an eviction like a miss in
     a busy daemon does *)
  let scratch = Result_cache.create () in
  let filler = (List.hd inputs).Inputs.entry in
  for i = 1 to Result_cache.capacity scratch do
    Result_cache.store scratch
      { Result_cache.fingerprint = Int64.of_int (-i); method_tag = 3; domains = 1; max_level = -1 }
      filler
  done;
  let wal_path = Filename.concat dir "replay.wal" in
  let wal =
    match
      Wal.open_ ~capacity:Result_cache.default_capacity
        ~snapshot:(fun () -> Result_cache.snapshot scratch)
        wal_path
    with
    | Ok wal -> wal
    | Error e -> failwith (Dse_error.to_string e)
  in
  let salt = ref 0 in
  let wrong =
    List.filter
      (fun (input : Inputs.t) ->
        let index = input.Inputs.index in
        let frame =
          frame_bytes ~dir (fun fd -> Protocol.write_request fd (request_of input))
        in
        let answers =
          List.init reps (fun _ ->
              Spans.with_ ~input:index "replay" (fun () ->
                  let request =
                    feeding frame (fun fd ->
                        Spans.with_ "protocol.read_request" (fun () ->
                            Protocol.read_request ~sketch_approx:true fd))
                  in
                  let submission =
                    match request with
                    | Ok (Some (Protocol.Submit { trace; _ })) -> trace
                    | Ok _ -> failwith "replayed frame did not decode to a submission"
                    | Error e -> failwith (Dse_error.to_string e)
                  in
                  let key =
                    Spans.with_ "protocol.submission_fingerprint" (fun () -> key_of submission)
                  in
                  let entry =
                    match Spans.with_ "result_cache.find" (fun () -> Result_cache.find lookup key) with
                    | Some entry -> entry
                    | None -> failwith "replayed key missing from the filled cache"
                  in
                  let outcome =
                    Spans.with_ "protocol.answer_entry" (fun () ->
                        Protocol.answer_entry ~name:input.Inputs.name
                          ~query:(Protocol.Percents Inputs.percents) ~max_level:None entry)
                  in
                  draining (fun fd ->
                      Spans.with_ "protocol.write_response" (fun () ->
                          ignore
                            (Protocol.write_response fd
                               (Protocol.Result { Protocol.outcome; cache_hit = true }))));
                  incr salt;
                  let fresh = { key with Result_cache.fingerprint = Int64.of_int !salt } in
                  Spans.with_ "result_cache.store" (fun () -> Result_cache.store scratch fresh entry);
                  Spans.with_ "wal.append" (fun () -> ignore (Wal.append wal fresh entry));
                  outcome))
        in
        List.exists (fun o -> o <> input.Inputs.expected) answers)
      inputs
  in
  Wal.close wal;
  Sys.remove wal_path;
  List.map (fun (i : Inputs.t) -> i.Inputs.name) wrong

(* [offline_path ?process inputs] replays the file-side layers on each
   input's binary trace file: load, the exact prelude, kernel and
   postlude, and the sketch-and-estimate path of approximate mode. Each
   round first calls [process] (a `dse explore` run of the same file),
   so the process walls and the stages they are split into are measured
   side by side. Inputs over [analytical_once_refs] references run the
   exact stages in the first round only. Returns the inputs whose
   replayed exact table differed from the oracle's. *)
let analytical_once_refs = 200_000

let offline_path ?(process = fun _ _ -> ()) (inputs : (Inputs.t * string) list) =
  List.filter_map
    (fun ((input : Inputs.t), file) ->
      let wrong = ref false in
      for round = 1 to reps do
        process input file;
        Spans.with_ ~input:input.Inputs.index "replay.file" (fun () ->
            let trace =
              match Spans.with_ "trace_io.load_binary" (fun () -> Trace_io.load_binary file) with
              | Ok ingest -> ingest.Trace_io.trace
              | Error e -> failwith (Dse_error.to_string e)
            in
            if round = 1 || Trace.length trace <= analytical_once_refs then begin
              let prepared = Spans.with_ "analytical.prepare" (fun () -> Analytical.prepare trace) in
              let histograms =
                Spans.with_ "analytical.histograms" (fun () -> Analytical.histograms prepared)
              in
              let table =
                Spans.with_ "analytical_dse.of_histograms" (fun () ->
                    Analytical_dse.of_histograms ~percents:Inputs.percents ~name:input.Inputs.name
                      ~stats:(Analytical.stats prepared) histograms)
              in
              match input.Inputs.expected with
              | Protocol.Table expected when table <> expected -> wrong := true
              | _ -> ()
            end;
            match
              Spans.with_ "approx_dse.sketch_file" (fun () ->
                  Approx_dse.sketch_file ~format:`Binary file)
            with
            | Error e -> failwith (Dse_error.to_string e)
            | Ok (profile, _) ->
              Spans.with_ "approx_dse.estimate" (fun () ->
                  ignore
                    (Approx_dse.table ~percents:Inputs.percents ~name:input.Inputs.name
                       (Approx_dse.prepare profile))))
      done;
      if !wrong then Some input.Inputs.name else None)
    inputs
