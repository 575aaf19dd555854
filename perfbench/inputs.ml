(* Workload inputs and their oracle answers. Every input is generated
   from the run's seed, and its expected answer is computed in-process
   with Analytical and Analytical_dse before anything is timed. *)

let percents = [ 5; 10; 15; 20 ]

type t = {
  index : int;
  name : string;
  trace : Trace.t;
  stats : Stats.t;
  entry : Result_cache.entry;  (* what a daemon caches for the trace *)
  expected : Protocol.outcome;  (* the answer to the default percent sweep *)
}

(* A per-input seed derived from the run seed, so inputs differ across
   runs and across indices but repeat for the same seed. *)
let derive seed index = Hashtbl.hash (seed, index, "perfbench") land 0x3FFFFFFF

(* [exact_oracle ~index ~name trace] runs the prelude and the default
   Arena kernel in-process and derives the expected table. Untimed: the
   layer times come from the replay, which runs serially after the
   window. *)
let exact_oracle ~index ~name trace =
  let prepared = Analytical.prepare trace in
  let stats = Analytical.stats prepared in
  let histograms = Analytical.histograms prepared in
  let table = Analytical_dse.of_histograms ~percents ~name ~stats histograms in
  {
    index;
    name;
    trace;
    stats;
    entry = Result_cache.Exact { stats; histograms };
    expected = Protocol.Table table;
  }

let zipf_trace ~seed ~span ~length =
  Synthetic.power_law ~seed ~span ~skew:0.8 ~length ()

(* Run [f] over [items] on [domains] domains (the oracle of a miss
   workload costs as much CPU as the served window, so it is spread
   over the cores before timing starts). Results keep [items]' order. *)
let parallel_map ~domains f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f i items.(i));
        go ()
      end
    in
    go ()
  in
  let helpers = List.init (max 0 (domains - 1)) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join helpers;
  Array.to_list (Array.map Option.get results)
