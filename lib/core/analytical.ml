type method_ = Arena

(* The arena strip is the only representation: prepare builds it
   directly from the trace with no boxed intermediates. Oracle callers
   that need the boxed strip or the MRCT derive them with
   [Arena_kernel.to_strip] and [Mrct.build]. *)
type prepared = { arena : Arena_kernel.strip; max_level : int; line_words : int }

let arena_strip prepared = prepared.arena

let max_level prepared = prepared.max_level

let line_words prepared = prepared.line_words

let stats prepared = Arena_kernel.stats prepared.arena

let prepare ?max_level ?(line_words = 1) trace =
  if line_words < 1 || line_words land (line_words - 1) <> 0 then
    invalid_arg "Analytical.prepare: line_words must be a positive power of two";
  let arena = Arena_kernel.of_trace ~line_words trace in
  let bits = Arena_kernel.address_bits arena in
  let max_level =
    match max_level with None -> bits | Some m -> max 0 (min m bits)
  in
  { arena; max_level; line_words }

let histograms ?cancel ?domains prepared =
  Arena_kernel.histograms ?cancel ?domains prepared.arena ~max_level:prepared.max_level

let explore_prepared ?cancel ?domains prepared ~k =
  Optimizer.of_histograms ~k (histograms ?cancel ?domains prepared)

let explore_many ?domains prepared ~ks =
  let histograms = histograms ?domains prepared in
  List.map (fun k -> Optimizer.of_histograms ~k histograms) ks

let explore ?max_level ?line_words ?domains trace ~k =
  explore_prepared ?domains (prepare ?max_level ?line_words trace) ~k

let level_of_depth depth max_level =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  if depth < 1 || depth land (depth - 1) <> 0 then
    invalid_arg "Analytical.misses: depth must be a positive power of two";
  let level = log2 depth 0 in
  if level > max_level then
    invalid_arg
      (Printf.sprintf "Analytical.misses: depth %d exceeds max level %d" depth max_level);
  level

let misses ?domains prepared ~depth ~associativity =
  let level = level_of_depth depth prepared.max_level in
  Arena_kernel.misses ?domains prepared.arena ~level ~associativity
