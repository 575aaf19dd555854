type kind = Fail | Hang | Net_drop | Net_delay of int

type spec = { kind : kind; times : int }

(* The armed state is written before any worker domain is spawned and
   only read concurrently; the budget is an atomic so two jobs running
   at once cannot double-consume it. *)
let state : (kind * int Atomic.t) option ref = ref None

(* Hung kernel runs spin on this flag instead of sleeping forever, so
   tests and benches can unwedge their zombie domains during teardown.
   Releases are sticky until the next [set]. *)
let released = Atomic.make false

let set spec =
  Atomic.set released false;
  match spec with
  | None -> state := None
  | Some { kind; times } -> state := Some (kind, Atomic.make times)

let parse s =
  let spec kind times = if times >= 1 then Some { kind; times } else None in
  let kernel = function "fail" -> Some Fail | "hang" -> Some Hang | _ -> None in
  match String.split_on_char ':' s with
  | [ which ] -> Option.bind (kernel which) (fun kind -> spec kind 1)
  | [ which; t ] -> (
    match (kernel which, int_of_string_opt t) with
    | Some kind, Some times -> spec kind times
    | _ -> None)
  | [ "net"; "drop"; k ] -> Option.bind (int_of_string_opt k) (spec Net_drop)
  | [ "net"; "delay"; k; ms ] -> (
    match (int_of_string_opt k, int_of_string_opt ms) with
    | Some times, Some ms when ms >= 0 -> spec (Net_delay ms) times
    | _ -> None)
  | _ -> None

let arm s =
  match parse s with
  | Some spec ->
    set (Some spec);
    true
  | None -> false

let install_from_env () =
  set (Option.bind (Sys.getenv_opt "DSE_FAULT") parse)

let take remaining =
  let rec take () =
    let r = Atomic.get remaining in
    if r <= 0 then false
    else if Atomic.compare_and_set remaining r (r - 1) then true
    else take ()
  in
  take ()

let claim want () =
  match !state with
  | None -> false
  | Some (kind, remaining) -> kind = want && take remaining

let should_fail = claim Fail

let should_hang = claim Hang

let net_drop = claim Net_drop

let net_delay () =
  match !state with
  | Some (Net_delay ms, remaining) -> if take remaining then Some ms else None
  | _ -> None

let release_hangs () = Atomic.set released true

let hang_released () = Atomic.get released
