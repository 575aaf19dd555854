type t = { conflicts : int array array array }

(* Recency list as intrusive prev/next arrays over identifiers, threaded
   through a sentinel head. Walking from the head to [u] enumerates the
   references seen since [u]'s previous occurrence. *)
let build (s : Strip.t) =
  let n' = Strip.num_unique s in
  let n = Strip.num_refs s in
  let next = Array.make (n' + 1) n' in
  let prev = Array.make (n' + 1) n' in
  (* index n' is the sentinel; the list is initially empty *)
  let in_list = Array.make n' false in
  let buffers = Array.make n' [] in
  (* buffers.(u) accumulates conflict sets in reverse occurrence order *)
  let unlink u =
    next.(prev.(u)) <- next.(u);
    prev.(next.(u)) <- prev.(u)
  in
  let push_front u =
    let first = next.(n') in
    next.(n') <- u;
    prev.(u) <- n';
    next.(u) <- first;
    prev.(first) <- u
  in
  for j = 0 to n - 1 do
    let u = s.ids.(j) in
    if in_list.(u) then begin
      (* Collect everything more recent than u's previous occurrence. *)
      let rec walk v acc count =
        if v = u then (acc, count) else walk next.(v) (v :: acc) (count + 1)
      in
      let members, count = walk next.(n') [] 0 in
      let conflict = Array.make count 0 in
      let rec fill i = function
        | [] -> ()
        | x :: rest ->
          conflict.(i) <- x;
          fill (i + 1) rest
      in
      (* members is most-recent-last after the reversal in [walk] *)
      fill 0 members;
      buffers.(u) <- conflict :: buffers.(u);
      unlink u;
      push_front u
    end
    else begin
      in_list.(u) <- true;
      push_front u
    end
  done;
  { conflicts = Array.map (fun sets -> Array.of_list (List.rev sets)) buffers }

let num_unique t = Array.length t.conflicts

let conflict_sets t u = t.conflicts.(u)

let iter f t =
  Array.iteri (fun u sets -> Array.iter (fun set -> f u set) sets) t.conflicts

let total_sets t =
  Array.fold_left (fun acc sets -> acc + Array.length sets) 0 t.conflicts

let volume t =
  Array.fold_left
    (fun acc sets -> Array.fold_left (fun a set -> a + Array.length set) acc sets)
    0 t.conflicts
