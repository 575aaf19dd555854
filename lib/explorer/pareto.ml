type point = {
  depth : int;
  associativity : int;
  size_words : int;
  misses : int;
  totals : System_cost.totals;
}

let candidates ?(line_words = 1) trace ~k =
  let prepared = Analytical.prepare ~line_words trace in
  let result = Analytical.explore_prepared prepared ~k in
  let writes =
    Trace.fold
      (fun acc (a : Trace.access) ->
        match a.Trace.kind with Trace.Write -> acc + 1 | Trace.Read | Trace.Fetch -> acc)
      0 trace
  in
  let reads = Trace.length trace - writes in
  let cold = (Analytical.stats prepared).Stats.n_unique in
  let bus = Bus_cost.address_activity trace in
  Array.to_list result.Optimizer.levels
  |> List.map (fun (level : Optimizer.level_result) ->
         let config =
           Config.make ~line_words ~depth:level.Optimizer.depth
             ~associativity:level.Optimizer.min_associativity ()
         in
         let totals =
           System_cost.evaluate config ~reads ~writes
             ~total_misses:(level.Optimizer.misses + cold)
             ~bus
         in
         {
           depth = level.Optimizer.depth;
           associativity = level.Optimizer.min_associativity;
           size_words = Config.size_words config;
           misses = level.Optimizer.misses;
           totals;
         })

let dominates a b =
  let open System_cost in
  a.totals.energy <= b.totals.energy
  && a.totals.time <= b.totals.time
  && a.totals.area <= b.totals.area
  && (a.totals.energy < b.totals.energy
     || a.totals.time < b.totals.time
     || a.totals.area < b.totals.area)

let frontier points =
  let non_dominated p = not (List.exists (fun q -> dominates q p) points) in
  List.filter non_dominated points
  |> List.sort (fun a b -> compare a.totals.System_cost.area b.totals.System_cost.area)

let pp_point fmt p =
  Format.fprintf fmt "%5dx%-3d (%6d words, %6d misses) %a" p.depth p.associativity
    p.size_words p.misses System_cost.pp p.totals
