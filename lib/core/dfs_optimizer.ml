(* Count trailing zeros of a positive int, clamped to [limit]. [limit]
   is threaded as an argument — a nested closure capturing it would
   allocate on every call, and this runs once per conflicting
   reference. *)
let rec ctz_clamped x acc limit =
  if acc >= limit then limit
  else if x land 1 = 1 then acc
  else ctz_clamped (x lsr 1) (acc + 1) limit

let histograms ~addresses mrct ~max_level =
  if max_level < 0 then invalid_arg "Dfs_optimizer: negative max_level";
  let hists = Array.make (max_level + 1) [||] in
  for l = 0 to max_level do
    hists.(l) <- Array.make 1 0
  done;
  let max_c = Array.make (max_level + 1) 0 in
  let record level c =
    let h = hists.(level) in
    let h =
      if c >= Array.length h then begin
        let bigger = Array.make (max (c + 1) (2 * Array.length h)) 0 in
        Array.blit h 0 bigger 0 (Array.length h);
        hists.(level) <- bigger;
        bigger
      end
      else h
    in
    h.(c) <- h.(c) + 1;
    if c > max_c.(level) then max_c.(level) <- c
  in
  (* For one conflict set of reference u: tally, for each v in the set,
     the deepest level at which u and v still share a row; the conflict
     cardinality at level l is then the suffix count. *)
  let depth_count = Array.make (max_level + 1) 0 in
  Mrct.iter
    (fun u conflict ->
      if Array.length conflict > 0 then begin
        Array.fill depth_count 0 (max_level + 1) 0;
        let au = addresses.(u) in
        Array.iter
          (fun v ->
            let shared = ctz_clamped (au lxor addresses.(v)) 0 max_level in
            depth_count.(shared) <- depth_count.(shared) + 1)
          conflict;
        let running = ref 0 in
        for l = max_level downto 0 do
          running := !running + depth_count.(l);
          if !running > 0 then record l !running
        done
      end)
    mrct;
  Array.mapi (fun l h -> Array.sub h 0 (max_c.(l) + 1)) hists

let explore ~addresses mrct ~max_level ~k =
  Optimizer.of_histograms ~k (histograms ~addresses mrct ~max_level)
