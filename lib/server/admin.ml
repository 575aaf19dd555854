(* The fleet-membership control plane behind [dse route --admin] and
   the [dse chaos] harness.

   Every operation is a pure client of the wire protocol: read the
   freshest ring config from the contactable fleet (Ring_status), derive
   the next config (one version bump per change), and push it
   (Ring_update / Drain) in the order that keeps warm state safe:

   - join:  the newcomer first (so its anti-entropy pulls its range
            under the new ring while it already serves), then the
            incumbents, then the gateway — routing moves last, so no
            request is routed at a node that would still fence it.
   - drain: the survivors first (so the leaver's fenced handoff pushes
            are accepted), then Drain to the leaver (which sheds new
            work, settles, pushes every warm record to the post-drain
            owners and adopts the config that excludes itself), then
            the gateway — the drained node keeps answering cache hits
            until routing moves off it.
   - leave: survivors then gateway only — the node is presumed dead and
            is not contacted; its warm range is recovered from replicas
            by anti-entropy, not handoff.

   A push failure to one target is reported, not fatal: the epoch fence
   heals stragglers — their next cross-node exchange answers Stale_ring
   and triggers a config refetch. *)

let status_timeout = 5.0

(* A drain settles in-flight jobs (up to the daemon's 30 s bound) and
   then pushes its whole warm set; give it room. *)
let drain_timeout = 120.0

let exchange ?(timeout = status_timeout) target request =
  Client.exchange ~connect_timeout:2.0 ~timeout target request

let invalid message = Error (Dse_error.Constraint_violation { context = "admin"; message })

let ring_status target =
  match exchange target Protocol.Ring_status with
  | Error _ as e -> e
  | Ok (Protocol.Ring_reply { config; draining; pushed }) -> Ok (config, draining, pushed)
  | Ok (Protocol.Server_error e) -> Error e
  | Ok _ -> invalid (Printf.sprintf "%s sent an unexpected reply to ring-status" target)

(* The freshest fleet view among the contacts — ties broken by contact
   order. Only fails when no contact answered at all. *)
let fetch_config contacts =
  if contacts = [] then invalid "at least one contact address is required"
  else
    let best, last_error =
      List.fold_left
        (fun (best, _last) target ->
          match ring_status target with
          | Ok (config, _, _) -> (
            match best with
            | Some (b : Protocol.ring_config) when b.ring_version >= config.ring_version ->
              (best, None)
            | _ -> (Some config, None))
          | Error e -> (best, Some e))
        (None, None) contacts
    in
    match (best, last_error) with
    | Some config, _ -> Ok config
    | None, Some e -> Error e
    | None, None -> invalid "at least one contact address is required"

(* Push [config] to every target; the failed ones come back labelled.
   The fence turns any straggler into a self-healing problem. *)
let push_config (config : Protocol.ring_config) targets =
  List.filter_map
    (fun target ->
      match exchange target (Protocol.Ring_update { config }) with
      | Ok (Protocol.Ring_reply _) -> None
      | Ok (Protocol.Server_error e) -> Some (target, e)
      | Ok _ ->
        Some
          ( target,
            Dse_error.Constraint_violation
              { context = "admin"; message = "unexpected reply to ring-update" } )
      | Error e -> Some (target, e))
    targets

let with_gateway gateway targets =
  match gateway with None -> targets | Some g -> targets @ [ g ]

let join ?gateway ~contacts node =
  match fetch_config contacts with
  | Error _ as e -> e
  | Ok current ->
    if List.mem node current.nodes then
      invalid (Printf.sprintf "%s is already a ring member (v%d)" node current.ring_version)
    else
      let next =
        {
          Protocol.ring_version = current.ring_version + 1;
          nodes = current.nodes @ [ node ];
          replication = current.replication;
        }
      in
      (* newcomer first: it must know the ring before traffic arrives *)
      let failed = push_config next (with_gateway gateway (node :: current.nodes)) in
      Ok (next, failed)

let drain ?gateway ~contacts node =
  match fetch_config contacts with
  | Error _ as e -> e
  | Ok current ->
    if not (List.mem node current.nodes) then
      invalid (Printf.sprintf "%s is not a ring member (v%d)" node current.ring_version)
    else if List.length current.nodes < 2 then
      invalid "cannot drain the last ring member"
    else
      let survivors = List.filter (fun n -> n <> node) current.nodes in
      let next =
        {
          Protocol.ring_version = current.ring_version + 1;
          nodes = survivors;
          replication = current.replication;
        }
      in
      (* survivors first, so the leaver's fenced handoff is accepted *)
      let failed = push_config next survivors in
      let handoff = exchange ~timeout:drain_timeout node (Protocol.Drain { config = next }) in
      let failed =
        failed
        @
        match gateway with
        | None -> []
        | Some g -> push_config next [ g ] (* routing moves off the leaver last *)
      in
      (match handoff with
      | Ok (Protocol.Ring_reply { pushed; _ }) -> Ok (next, pushed, failed)
      | Ok (Protocol.Server_error e) -> Error e
      | Ok _ -> invalid (Printf.sprintf "%s sent an unexpected reply to drain" node)
      | Error e -> Error e)

let leave ?gateway ~contacts node =
  match fetch_config contacts with
  | Error _ as e -> e
  | Ok current ->
    if not (List.mem node current.nodes) then
      invalid (Printf.sprintf "%s is not a ring member (v%d)" node current.ring_version)
    else if List.length current.nodes < 2 then
      invalid "cannot remove the last ring member"
    else
      let survivors = List.filter (fun n -> n <> node) current.nodes in
      let next =
        {
          Protocol.ring_version = current.ring_version + 1;
          nodes = survivors;
          replication = current.replication;
        }
      in
      Ok (next, push_config next (with_gateway gateway survivors))

let set_replication ?gateway ~contacts replication =
  if replication < 1 then invalid "replication must be >= 1"
  else
    match fetch_config contacts with
    | Error _ as e -> e
    | Ok current ->
      if current.replication = replication then
        invalid (Printf.sprintf "replication is already %d (v%d)" replication current.ring_version)
      else
        let next =
          { current with Protocol.ring_version = current.ring_version + 1; replication }
        in
        Ok (next, push_config next (with_gateway gateway current.nodes))
