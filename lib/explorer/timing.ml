type sample = { name : string; n : int; n_unique : int; seconds : float }

let time f =
  let start = Sys.time () in
  let result = f () in
  (result, Sys.time () -. start)

let time_wall f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let analytical_sample ?(repeats = 1) ~name trace =
  if repeats < 1 then invalid_arg "Timing.analytical_sample: repeats must be >= 1";
  let one () =
    let (), seconds =
      time_wall (fun () ->
          ignore (Analytical_dse.run ~name trace : Analytical_dse.table))
    in
    seconds
  in
  let seconds = ref (one ()) in
  for _rep = 2 to repeats do
    let s = one () in
    if s < !seconds then seconds := s
  done;
  let stats = Stats.compute trace in
  { name; n = stats.Stats.n; n_unique = stats.Stats.n_unique; seconds = !seconds }

let work s = float_of_int s.n *. float_of_int s.n_unique

let linear_fit samples =
  let n = float_of_int (List.length samples) in
  if n < 2.0 then invalid_arg "Timing.linear_fit: need at least two samples";
  let xs = List.map work samples in
  let ys = List.map (fun s -> s.seconds) samples in
  let sum = List.fold_left ( +. ) 0.0 in
  let sx = sum xs and sy = sum ys in
  let sxx = sum (List.map (fun x -> x *. x) xs) in
  let sxy = sum (List.map2 ( *. ) xs ys) in
  let denominator = (n *. sxx) -. (sx *. sx) in
  let slope = if denominator = 0.0 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denominator in
  let intercept = (sy -. (slope *. sx)) /. n in
  let mean_y = sy /. n in
  let ss_tot = sum (List.map (fun y -> (y -. mean_y) ** 2.0) ys) in
  let ss_res =
    sum (List.map2 (fun x y -> (y -. (slope *. x) -. intercept) ** 2.0) xs ys)
  in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  (slope, intercept, r2)
