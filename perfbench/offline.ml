(* The offline path: `dse explore` on a seeded binary trace file, one
   process per run, checked against the in-process answer. *)

let write_zipf ~seed ~length path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Trace_io.write_binary_stream oc ~length
        (Synthetic.iter_power_law ~seed ~span:2048 ~skew:0.8 ~length))

let load path =
  match Trace_io.load_binary path with
  | Ok ingest -> ingest.Trace_io.trace
  | Error e -> failwith (Dse_error.to_string e)

(* the CSV `dse explore --csv` prints for an exact table *)
let exact_csv = function
  | Protocol.Table table -> Report.instances_to_csv (Analytical_dse.trim table)
  | _ -> invalid_arg "exact_csv"

let argv ~dse file = [| dse; "explore"; file; "--format"; "binary"; "--csv" |]

(* One run: wall time from spawn to reap, and whether it printed the
   expected CSV and exited 0. *)
let run ~dse ~log ~expected file =
  let start, stop, status, out = Procs.run_capture ~log (argv ~dse file) in
  (start, stop, status = Unix.WEXITED 0 && out = expected)

let file_bytes path = (Unix.stat path).Unix.st_size
