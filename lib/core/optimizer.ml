type level_result = {
  level : int;
  depth : int;
  min_associativity : int;
  misses : int;
  zero_miss_associativity : int;
}

type t = { k : int; levels : level_result array }

let misses_of_histogram histogram ~associativity =
  if associativity < 1 then invalid_arg "Optimizer: associativity must be >= 1";
  let n = ref 0 in
  for c = associativity to Array.length histogram - 1 do
    n := !n + histogram.(c)
  done;
  !n

(* Histogram of |C ∩ S| over all warm occurrences at one level. The row
   set S is loaded into a scratch bitset so each membership test is O(1);
   entries with an empty intersection cannot miss and are not recorded. *)
let histogram_at bcat mrct ~level =
  let n' = Bcat.num_unique bcat in
  let scratch = Bitset.create (max n' 1) in
  let hist = Array.make (n' + 1) 0 in
  let max_c = ref 0 in
  let visit_row ids =
    Array.iter (fun id -> Bitset.add scratch id) ids;
    Array.iter
      (fun e ->
        Array.iter
          (fun conflict ->
            let c = ref 0 in
            Array.iter (fun v -> if Bitset.mem scratch v then incr c) conflict;
            if !c > 0 then begin
              hist.(!c) <- hist.(!c) + 1;
              if !c > !max_c then max_c := !c
            end)
          (Mrct.conflict_sets mrct e))
      ids;
    Array.iter (fun id -> Bitset.remove scratch id) ids
  in
  List.iter visit_row (Bcat.conflict_sets_at_level bcat level);
  Array.sub hist 0 (!max_c + 1)

let misses_at bcat mrct ~level ~associativity =
  misses_of_histogram (histogram_at bcat mrct ~level) ~associativity

let level_result_of_histogram ~k ~level histogram =
  (* The miss count at associativity [a] is the suffix sum of [c >= a],
     non-increasing in [a] and zero from [max 1 (length)] on. Walk down
     from there, growing the suffix sum one bucket per step, while the
     next smaller associativity still meets the budget: O(width). *)
  let a = ref (max 1 (Array.length histogram)) and misses = ref 0 in
  while !a > 1 && !misses + histogram.(!a - 1) <= k do
    misses := !misses + histogram.(!a - 1);
    decr a
  done;
  { level;
    depth = 1 lsl level;
    min_associativity = !a;
    misses = !misses;
    zero_miss_associativity = max 1 (Array.length histogram);
  }

let of_histograms ~k histograms =
  if k < 0 then invalid_arg "Optimizer: negative miss budget";
  { k; levels = Array.mapi (fun level h -> level_result_of_histogram ~k ~level h) histograms }

let explore bcat mrct ~k =
  if k < 0 then invalid_arg "Optimizer.explore: negative miss budget";
  let histograms =
    Array.init (Bcat.max_level bcat + 1) (fun level -> histogram_at bcat mrct ~level)
  in
  of_histograms ~k histograms

let optimal_pairs t =
  Array.to_list (Array.map (fun r -> (r.depth, r.min_associativity)) t.levels)

let pp fmt t =
  Format.fprintf fmt "@[<v>K=%d@," t.k;
  Array.iter
    (fun r ->
      Format.fprintf fmt "depth=%-6d assoc=%-3d misses=%-8d zero-miss assoc=%d@,"
        r.depth r.min_associativity r.misses r.zero_miss_associativity)
    t.levels;
  Format.fprintf fmt "@]"
