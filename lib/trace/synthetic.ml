let check_positive name v = if v <= 0 then invalid_arg ("Synthetic: " ^ name ^ " must be positive")

let sequential ~start ~length =
  check_positive "length" length;
  Trace.of_addresses (Array.init length (fun k -> start + k))

let loop ~base ~body ~iterations =
  check_positive "body" body;
  check_positive "iterations" iterations;
  let trace = Trace.create ~capacity:(body * iterations) () in
  for _it = 1 to iterations do
    for offset = 0 to body - 1 do
      Trace.add trace ~addr:(base + offset) ~kind:Trace.Fetch
    done
  done;
  trace

let strided ~base ~stride ~count ~iterations =
  check_positive "stride" stride;
  check_positive "count" count;
  check_positive "iterations" iterations;
  let trace = Trace.create ~capacity:(count * iterations) () in
  for _it = 1 to iterations do
    for k = 0 to count - 1 do
      Trace.add trace ~addr:(base + (k * stride)) ~kind:Trace.Read
    done
  done;
  trace

(* Small deterministic xorshift so the generators do not depend on the
   global Random state. *)
let next_random state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  state := if x = 0 then 88172645463325252 else x;
  !state

let hot_cold ~seed ~hot ~cold ~hot_percent ~length =
  check_positive "hot" hot;
  check_positive "cold" cold;
  check_positive "length" length;
  if hot_percent < 0 || hot_percent > 100 then
    invalid_arg "Synthetic: hot_percent must be within 0..100";
  let state = ref (seed lor 1) in
  let trace = Trace.create ~capacity:length () in
  for _k = 1 to length do
    let roll = next_random state mod 100 in
    let addr =
      if roll < hot_percent then next_random state mod hot
      else hot + (next_random state mod cold)
    in
    Trace.add trace ~addr ~kind:Trace.Read
  done;
  trace

let uniform ~seed ~span ~length =
  check_positive "span" span;
  check_positive "length" length;
  let state = ref (seed lor 1) in
  let trace = Trace.create ~capacity:length () in
  for _k = 1 to length do
    Trace.add trace ~addr:(next_random state mod span) ~kind:Trace.Read
  done;
  trace

(* Zipf-distributed rank sampler: P(k) proportional to 1/(k+1)^skew.
   Inverse-CDF with binary search — the CDF table is built once per
   sampler, so drawing is O(log n). This is the popularity shape of
   web/CDN traffic (Berthet's power-law miss-rate work builds on it),
   and the client mix under which cache-locality routing is honest:
   a few traces dominate, most are rare. *)
(* The sampler's inverse-CDF table costs 8 B per rank, so a span past
   2^27 addresses (a 1 GiB table) is refused before anything is
   allocated. *)
let max_span = 1 lsl 27

let check_span span =
  if span > max_span then
    Dse_error.fail
      (Dse_error.Constraint_violation
         {
           context = "Synthetic";
           message =
             Printf.sprintf
               "span %d exceeds %d addresses: the zipf sampler's table takes 8 bytes per address"
               span max_span;
         })

let zipf_sampler ~seed ~n ~skew =
  check_positive "n" n;
  check_span n;
  if not (skew > 0.) then invalid_arg "Synthetic: skew must be positive";
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (k + 1)) skew);
    cdf.(k) <- !total
  done;
  (* [(seed * 2) lor 1] is odd-and-nonzero like the other generators'
     [seed lor 1], but injective: consecutive seeds must not collapse
     to the same stream (seed 12 and 13 would otherwise draw
     identically, which silently deduplicates "distinct" workloads) *)
  let state = ref ((seed * 2) lor 1) in
  fun () ->
    let u = float_of_int (next_random state) /. float_of_int max_int *. !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let zipfian ~seed ~span ~skew ~length =
  check_positive "span" span;
  check_positive "length" length;
  let draw = zipf_sampler ~seed ~n:span ~skew in
  (* ranks map to addresses through a multiplicative shuffle, so the
     popular addresses are scattered over the span instead of packed at
     its bottom (which would make every hot line a neighbour) *)
  let trace = Trace.create ~capacity:length () in
  for _k = 1 to length do
    let rank = draw () in
    Trace.add trace ~addr:(rank * 2654435761 mod span) ~kind:Trace.Read
  done;
  trace

(* CDN/web-shaped workload: Zipf popularity over [span] objects plus
   optional working-set churn. Each rank carries a salt; with
   probability [churn] per reference the drawn rank's salt is bumped
   before the access, remapping that rank to a fresh address inside the
   span — the popularity *shape* is stationary but its *support* drifts,
   the way a CDN's hot set rolls over as content is published. The
   second shuffle constant is odd, so both terms permute [span] when it
   is a power of two. Generator state is O(span) (CDF table + salts);
   the emitted stream is unbounded — pair with
   [Trace_io.write_binary_stream] or a sketch sink for huge lengths. *)
let iter_power_law ~seed ~span ~skew ?(churn = 0.) ~length sink =
  check_positive "span" span;
  check_positive "length" length;
  if not (churn >= 0. && churn <= 1.) then
    invalid_arg "Synthetic: churn must be within [0, 1]";
  let draw = zipf_sampler ~seed ~n:span ~skew in
  let salts = if churn > 0. then Array.make span 0 else [||] in
  let state = ref ((seed * 2) lor 5) in
  for _k = 1 to length do
    let rank = draw () in
    let salt =
      if churn > 0. then begin
        if float_of_int (next_random state) /. float_of_int max_int < churn then
          salts.(rank) <- salts.(rank) + 1;
        salts.(rank)
      end
      else 0
    in
    let addr = ((rank * 2654435761) + (salt * 1540483477)) mod span in
    sink ~addr ~kind:Trace.Read
  done

let power_law ~seed ~span ~skew ?churn ~length () =
  let trace = Trace.create ~capacity:length () in
  iter_power_law ~seed ~span ~skew ?churn ~length (fun ~addr ~kind ->
      Trace.add trace ~addr ~kind);
  trace
