(* Order statistics over samples: linear interpolation between closest
   ranks, so a percentile moves smoothly with the samples. *)

let percentile p samples =
  match samples with
  | [] -> nan
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = percentile 50. samples

let mean = function
  | [] -> nan
  | samples -> List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)
