type table = {
  name : string;
  stats : Stats.t;
  percents : int list;
  budgets : int list;
  rows : (int * int list) list;
}

let of_histograms ?(percents = [ 5; 10; 15; 20 ]) ~name ~stats histograms =
  let budgets = List.map (fun percent -> Stats.budget stats ~percent) percents in
  let results = List.map (fun k -> Optimizer.of_histograms ~k histograms) budgets in
  let max_level = Array.length histograms - 1 in
  let rows =
    List.init (max_level + 1) (fun level ->
        let depth = 1 lsl level in
        let assocs =
          List.map
            (fun (r : Optimizer.t) -> r.Optimizer.levels.(level).Optimizer.min_associativity)
            results
        in
        (depth, assocs))
  in
  { name; stats; percents; budgets; rows }

let run ?percents ?max_level ?line_words ~name trace =
  let prepared = Analytical.prepare ?max_level ?line_words trace in
  (* both read from the one stream run [prepare] made *)
  let stats = Analytical.stats prepared in
  let histograms = Analytical.histograms prepared in
  of_histograms ?percents ~name ~stats histograms

let trim table =
  let rec keep = function
    | [] -> []
    | ((_, assocs) as row) :: rest ->
      if List.for_all (fun a -> a = 1) assocs then [ row ] else row :: keep rest
  in
  { table with rows = keep table.rows }
