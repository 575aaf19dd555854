(* The processes of the system under test: spawned with private logs,
   stopped with SIGTERM and an exit-status check, and accounted for at
   the end so that a leaked process or socket file fails the run. *)

type proc = {
  pid : int;
  label : string;
  sockets : string list;  (* Unix socket files the process owns *)
  mutable reaped : Unix.process_status option;
}

let live : proc list ref = ref []

let all_spawned : proc list ref = ref []

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let open_log path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* [spawn ~label ~log ?sockets argv] starts a long-lived process
   (a daemon) with stdin from /dev/null and stdout/stderr
   appended to [log]. *)
let spawn ~label ~log ?(sockets = []) argv =
  let null = devnull () in
  let out = open_log log in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close out)
      (fun () -> Unix.create_process argv.(0) argv null out out)
  in
  let p = { pid; label; sockets; reaped = None } in
  live := p :: !live;
  all_spawned := p :: !all_spawned;
  p

let rec waitpid_nointr flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nointr flags pid

let try_reap p =
  match p.reaped with
  | Some _ -> true
  | None -> (
    match waitpid_nointr [ Unix.WNOHANG ] p.pid with
    | 0, _ -> false
    | _, status ->
      p.reaped <- Some status;
      live := List.filter (fun q -> q.pid <> p.pid) !live;
      true)

let signal p s = try Unix.kill p.pid s with Unix.Unix_error _ -> ()

(* [stop ?timeout p] sends SIGTERM and waits for a clean exit (status
   0). A process that ignores SIGTERM past [timeout] is killed and the
   stop reported as a failure. *)
let stop ?(timeout = 10.) p =
  if p.reaped = None then signal p Sys.sigterm;
  let deadline = Spans.now () +. timeout in
  while (not (try_reap p)) && Spans.now () < deadline do
    Unix.sleepf 0.005
  done;
  if not (try_reap p) then begin
    signal p Sys.sigkill;
    ignore (waitpid_nointr [] p.pid);
    p.reaped <- Some (Unix.WSIGNALED Sys.sigkill);
    live := List.filter (fun q -> q.pid <> p.pid) !live;
    Error (Printf.sprintf "%s ignored SIGTERM for %.0f s and was killed" p.label timeout)
  end
  else
    match p.reaped with
    | Some (Unix.WEXITED 0) -> Ok ()
    | Some status -> Error (Printf.sprintf "%s ended with %s" p.label (describe_status status))
    | None -> assert false

(* Last-resort cleanup when the benchmark itself is failing. *)
let kill_all () =
  List.iter
    (fun p ->
      signal p Sys.sigkill;
      (try ignore (waitpid_nointr [] p.pid) with Unix.Unix_error _ -> ());
      p.reaped <- Some (Unix.WSIGNALED Sys.sigkill))
    !live;
  live := []

(* [leaks ()] lists every spawned process still running or not yet
   reaped and every socket file left behind. *)
let leaks () =
  List.concat_map
    (fun p ->
      let running = if try_reap p then [] else [ p.label ^ " still running" ] in
      let files =
        List.filter_map
          (fun s -> if Sys.file_exists s then Some (p.label ^ " left socket " ^ s) else None)
          p.sockets
      in
      running @ files)
    !all_spawned

(* Peak resident set (VmHWM) of a live process, in KiB. *)
let peak_rss_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
            else scan ()
        in
        scan ())

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* [run_capture ~log argv] runs a short-lived command to completion and
   returns its wall time (spawn to reap), exit status and stdout. *)
let run_capture ~log argv =
  let null = devnull () in
  let err = open_log log in
  let r, w = Unix.pipe ~cloexec:true () in
  let start = Spans.now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close err;
        Unix.close w)
      (fun () -> Unix.create_process argv.(0) argv null w err)
  in
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  let _, status = waitpid_nointr [] pid in
  let stop = Spans.now () in
  (start, stop, status, out)

(* [run_peak_rss ~log argv] runs a command with stdout discarded,
   sampling its VmHWM every 2 ms; the high-water mark only grows, so
   the last sample before exit is the peak up to the final 2 ms. *)
let run_peak_rss ~log argv =
  let null = devnull () in
  let err = open_log log in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close err)
      (fun () -> Unix.create_process argv.(0) argv null null err)
  in
  let peak = ref 0 in
  let rec poll () =
    (match peak_rss_kb pid with Some kb -> peak := max !peak kb | None -> ());
    match waitpid_nointr [ Unix.WNOHANG ] pid with
    | 0, _ ->
      Unix.sleepf 0.002;
      poll ()
    | _, status -> status
  in
  let status = poll () in
  (status, !peak)
