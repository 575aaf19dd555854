(* The streaming fused MRCT->histogram kernel (see the interface): the
   recency-list walk of [Mrct.build] folding shared-bit counts straight
   into per-level histograms. Every hot table is an [Arena] bigarray the
   GC neither scans nor copies:

     ids          i32 arena, 4 B/ref   (vs 8 B boxed + GC scan)
     uniques      word arena, 8 B/unique
     next/prev    i32 arenas, 8 B/unique combined
     tallies      word arenas, grown geometrically off-heap

   The strip is built ONCE, directly from the trace — the boxed
   line-address array, [Hashtbl], and [Strip.t] of the classic prelude
   are never allocated — and shared by reference across shard domains:
   each [Shard_exec] closure captures the same handles, so a sharded run
   adds per-shard recency state (O(N')) and nothing proportional to N.

   Outputs are bit-identical to the materialized oracle: identical
   first-occurrence id assignment, identical histogram growth/trim
   semantics. *)

type strip = {
  ids : Arena.i32;  (* per-reference unique ids, read-only after build *)
  uniques : Arena.word;  (* id -> folded line address; first n' entries live *)
  n : int;
  n_unique : int;
  address_bits : int;
  max_misses : int;  (* depth-1 direct-mapped non-cold misses, free at build *)
}

(* Hot-path accessors duplicated from [Arena], local to this unit: the
   dev profile compiles interfaces opaquely, so a cross-module
   [Arena.i32_get] in the walk is a generic [caml_apply2] per element —
   measured 3x slower than the same walk on boxed arrays on the
   10M-reference bench.
   Applied here the bigarray primitives compile to direct loads. *)
let i32_get (a : Arena.i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i) [@@inline]

let i32_set (a : Arena.i32) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v) [@@inline]

let word_get (a : Arena.word) i : int = Bigarray.Array1.unsafe_get a i [@@inline]

let word_set (a : Arena.word) i (v : int) = Bigarray.Array1.unsafe_set a i v [@@inline]

let num_refs s = s.n

let num_unique s = s.n_unique

let address_bits s = s.address_bits

(* ids are narrowed to int32; the sentinel n' must fit too. Any trace
   with this many distinct lines is far past what the daemon admits, but
   the guard turns silent truncation into a typed refusal. *)
let max_uniques = 0x7FFFFFFE

let too_many_uniques () =
  Dse_error.fail
    (Dse_error.Constraint_violation
       {
         context = "Arena_kernel.of_trace";
         message =
           Printf.sprintf "more than %d unique line addresses overflow the int32 arena"
             max_uniques;
       })

(* Open-addressing hash table over a word arena: slot holds id+1 (0 =
   empty), keys compared through [uniques]. Fibonacci-style multiplicative
   hash; power-of-two capacity kept at most half full. *)
let hash_mix a = a * 0x2545F4914F6CDD1D

let of_trace ?(line_words = 1) trace =
  if line_words < 1 || line_words land (line_words - 1) <> 0 then
    invalid_arg "Arena_kernel.of_trace: line_words must be a positive power of two";
  let offset_bits =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 line_words 0
  in
  let n = Trace.length trace in
  let ids = Arena.i32_create n in
  let uniques = ref (Arena.word_create (min (max 16 n) 4096)) in
  let table_bits = ref 13 in
  let table = ref (Arena.word_create (1 lsl !table_bits)) in
  let count = ref 0 in
  let max_address = ref 0 in
  let direct_misses = ref 0 in
  let last_id = ref (-1) in
  let pos = ref 0 in
  let probe a =
    let mask = (1 lsl !table_bits) - 1 in
    let slot = ref (hash_mix a lsr (63 - !table_bits) land mask) in
    let found = ref (-1) in
    let stop = ref false in
    while not !stop do
      let entry = word_get !table !slot in
      if entry = 0 then stop := true
      else if word_get !uniques (entry - 1) = a then begin
        found := entry - 1;
        stop := true
      end
      else slot := (!slot + 1) land mask
    done;
    (!found, !slot)
  in
  let rehash () =
    table_bits := !table_bits + 1;
    table := Arena.word_create (1 lsl !table_bits);
    for id = 0 to !count - 1 do
      let _, slot = probe (word_get !uniques id) in
      word_set !table slot (id + 1)
    done
  in
  (* Trace.add already rejected negative addresses, and folding by
     [offset_bits] preserves the sign, so no per-element validity check
     is needed here. *)
  Trace.iter_addrs
    (fun raw ->
      let a = raw lsr offset_bits in
      let id =
        match probe a with
        | id, _ when id >= 0 -> id
        | _, slot ->
          if !count > max_uniques then too_many_uniques ();
          let id = !count in
          if id = Arena.word_length !uniques then
            uniques :=
              Arena.word_grow !uniques ~len:id ~capacity:(2 * Arena.word_length !uniques);
          word_set !uniques id a;
          word_set !table slot (id + 1);
          incr count;
          if a > !max_address then max_address := a;
          if 2 * !count >= 1 lsl !table_bits then rehash ();
          id
      in
      i32_set ids !pos id;
      if id <> !last_id then incr direct_misses;
      last_id := id;
      incr pos)
    trace;
  let address_bits =
    let rec bits v acc = if v = 0 then max acc 1 else bits (v lsr 1) (acc + 1) in
    bits !max_address 0
  in
  {
    ids;
    uniques = !uniques;
    n;
    n_unique = !count;
    address_bits;
    max_misses = max 0 (!direct_misses - !count);
  }

(* O(1) from fields recorded during the build: no trace re-scan, no
   boxed strip — the admission and reporting path for [--method arena]. *)
let stats s =
  {
    Stats.n = s.n;
    n_unique = s.n_unique;
    address_bits = s.address_bits;
    max_misses = s.max_misses;
  }

(* Boxed view for the materializing oracle and the Table-4 printers.
   Identical to [Strip.strip] by construction: ids are assigned in
   first-occurrence order in both builders. *)
let to_strip s =
  {
    Strip.uniques = Array.init s.n_unique (Arena.word_get s.uniques);
    ids = Array.init s.n (Arena.i32_get s.ids);
  }

(* -- the fused kernel -------------------------------------------------- *)

(* The conflict-level step: the deepest level at which two line
   addresses still share a row is the trailing-zero count of their XOR,
   clamped to [max_level]. Setting bit [max_level] (the sentinel) folds
   the clamp into the count: ctz (x lor 2^m) = min (ctz x, m). One
   lookup in a 256-entry trailing-zero table then answers every step
   whose sentinelled XOR has a nonzero low byte; the byte loop below
   runs only for addresses that agree on their low 8 bits. [max_level]
   is capped at 62 for the sentinel, which changes nothing: the XOR of
   two distinct non-negative addresses is nonzero, so its count is at
   most 61. The table is a [string], so a lookup is one load and never
   allocates. *)
let ctz_byte =
  String.init 256 (fun b ->
      let rec count b n = if n = 8 || b land 1 = 1 then n else count (b lsr 1) (n + 1) in
      Char.chr (count b 0))

let rec ctz_sentinelled y acc =
  let low = y land 0xFF in
  if low <> 0 then acc + Char.code (String.unsafe_get ctz_byte low)
  else ctz_sentinelled (y lsr 8) (acc + 8)

let sentinel_bit max_level = 1 lsl min max_level 62

(* Growable per-level histograms in word arenas; growth and trim match
   [Dfs_optimizer] exactly so kernel and oracle stay bit-identical.
   [max_c] is on-heap control state (levels+1 small ints), not data. *)
type tally = {
  hists : Arena.word array;
  max_c : int array;
  depth_count : Arena.word;
  max_level : int;
}

let tally_create max_level =
  if max_level < 0 then invalid_arg "Arena_kernel: negative max_level";
  {
    hists = Array.init (max_level + 1) (fun _ -> Arena.word_create 1);
    max_c = Array.make (max_level + 1) 0;
    depth_count = Arena.word_create (max_level + 1);
    max_level;
  }

let record t level c =
  let h = t.hists.(level) in
  let h =
    if c >= Arena.word_length h then begin
      let bigger =
        Arena.word_grow h ~len:(Arena.word_length h)
          ~capacity:(max (c + 1) (2 * Arena.word_length h))
      in
      t.hists.(level) <- bigger;
      bigger
    end
    else h
  in
  word_set h c (word_get h c + 1);
  if c > t.max_c.(level) then t.max_c.(level) <- c

let tally_finish t =
  Array.init (t.max_level + 1) (fun l ->
      Array.init (t.max_c.(l) + 1) (Arena.word_get t.hists.(l)))

(* Merge shard tallies straight from their arenas into the final boxed
   histograms — no per-shard intermediate arrays. Width per level is the
   max across shards of (max_c + 1), floored at 1, so the merge equals
   the sequential run's trim. *)
let merge_tallies ~max_level parts =
  Array.init (max_level + 1) (fun level ->
      let width =
        List.fold_left (fun acc t -> max acc (t.max_c.(level) + 1)) 1 parts
      in
      let merged = Array.make width 0 in
      List.iter
        (fun t ->
          let h = t.hists.(level) in
          for c = 0 to t.max_c.(level) do
            merged.(c) <- merged.(c) + Arena.word_get h c
          done)
        parts;
      merged)

(* One trace window [lo, hi): replay [0, lo) to reconstruct the recency
   list (O(1) per replayed access, no tallying), then tally. Warm
   occurrences partition by position, so summing window tallies is
   exact. The recency list lives in two i32 arenas. No membership set
   is needed: [of_trace] assigns ids in first-occurrence order, so a
   reference is cold exactly when its id equals [seen], the count of
   distinct ids met so far, and warm exactly when [u < seen]. The
   per-occurrence clear of [depth_count] touches only the levels the
   prefix walk wrote (tracked via [max_touched]) instead of an
   unconditional fill of all levels. *)
let window_tally ?(cancel = Cancel.none) s ~max_level ~lo ~hi =
  let t = tally_create max_level in
  let n' = s.n_unique in
  let next = Arena.i32_create (n' + 1) in
  let prev = Arena.i32_create (n' + 1) in
  Arena.i32_fill next n';
  Arena.i32_fill prev n';
  let seen = ref 0 in
  let sentinel = sentinel_bit max_level in
  let ids = s.ids in
  let uniques = s.uniques in
  let unlink u =
    let p = i32_get prev u and nx = i32_get next u in
    i32_set next p nx;
    i32_set prev nx p
  in
  let push_front u =
    let first = i32_get next n' in
    i32_set next n' u;
    i32_set prev u n';
    i32_set next u first;
    i32_set prev first u
  in
  for j = 0 to lo - 1 do
    if j land Cancel.poll_mask = 0 then Cancel.check cancel;
    let u = i32_get ids j in
    if u < !seen then unlink u else incr seen;
    push_front u
  done;
  let depth_count = t.depth_count in
  for j = lo to hi - 1 do
    if j land Cancel.poll_mask = 0 then Cancel.check cancel;
    let u = i32_get ids j in
    if u < !seen then begin
      let au = word_get uniques u in
      let v = ref (i32_get next n') in
      let max_touched = ref (-1) in
      while !v <> u do
        let shared = ctz_sentinelled ((au lxor word_get uniques !v) lor sentinel) 0 in
        word_set depth_count shared (word_get depth_count shared + 1);
        if shared > !max_touched then max_touched := shared;
        v := i32_get next !v
      done;
      (* suffix-sum over touched levels only, clearing as it reads:
         running >= 1 for every l <= max_touched, so this records the
         same (level, count) pairs as a full 0..max_level sweep *)
      let running = ref 0 in
      for l = !max_touched downto 0 do
        running := !running + word_get depth_count l;
        word_set depth_count l 0;
        record t l !running
      done;
      unlink u
    end
    else incr seen;
    push_front u
  done;
  t

(* Each shard pays an O(lo) replay prologue, so total replay work is
   ~domains/2 passes over the trace; below this window size the replay
   and Domain.spawn overhead outweigh the tally work split. *)
let min_shard_refs = 65536

let histograms ?(cancel = Cancel.none) ?(domains = 1) ?(shard_threshold = min_shard_refs) s
    ~max_level =
  let n = s.n in
  let domains = max 1 domains in
  if domains = 1 || n < domains * shard_threshold then
    tally_finish (window_tally ~cancel s ~max_level ~lo:0 ~hi:n)
  else begin
    let chunk = (n + domains - 1) / domains in
    match
      List.init domains (fun d -> (d * chunk, min n ((d + 1) * chunk)))
      |> List.filter (fun (lo, hi) -> lo < hi)
      |> Array.of_list
    with
    | [||] -> tally_finish (window_tally ~cancel s ~max_level ~lo:0 ~hi:n)
    | windows ->
      (* every shard closure captures the same [s]: the strip arenas are
         shared by reference across domains, read-only — no per-shard
         copies, boxed or otherwise *)
      merge_tallies ~max_level
        (Shard_exec.map ~cancel
           (fun shard ->
             let lo, hi = windows.(shard) in
             window_tally ~cancel s ~max_level ~lo ~hi)
           (Array.length windows))
  end

let explore ?cancel ?domains ?shard_threshold s ~max_level ~k =
  Optimizer.of_histograms ~k (histograms ?cancel ?domains ?shard_threshold s ~max_level)

let misses ?cancel ?domains ?shard_threshold s ~level ~associativity =
  if level < 0 then invalid_arg "Arena_kernel.misses: negative level";
  let hists = histograms ?cancel ?domains ?shard_threshold s ~max_level:level in
  Optimizer.misses_of_histogram hists.(level) ~associativity
