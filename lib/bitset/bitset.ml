type t = { capacity : int; words : int array }

let bits_per_word = 63 (* OCaml native ints: use 63 bits to stay boxed-free *)

let words_for capacity = (capacity + bits_per_word - 1) / bits_per_word

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Array.make (max 1 (words_for capacity)) 0 }

let capacity s = s.capacity

let copy s = { capacity = s.capacity; words = Array.copy s.words }

let check_index s i op =
  if i < 0 || i >= s.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of [0, %d)" op i s.capacity)

let add s i =
  check_index s i "add";
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl b)

let remove s i =
  check_index s i "remove";
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl b)

let mem s i =
  if i < 0 || i >= s.capacity then false
  else
    let w = i / bits_per_word and b = i mod bits_per_word in
    s.words.(w) land (1 lsl b) <> 0

let clear s = Array.fill s.words 0 (Array.length s.words) 0

(* Popcount via a 16-bit lookup table: four table probes per 63-bit word.
   [lsr] is a logical shift, so words with bit 62 set are handled too.
   The table is built at start-up, one entry per index from the entry
   of [i lsr 1], already set. *)
let popcount_table =
  let t = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.unsafe_set t i (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let popcount x =
  let probe v = Char.code (Bytes.unsafe_get popcount_table (v land 0xffff)) in
  probe x + probe (x lsr 16) + probe (x lsr 32) + probe (x lsr 48)

let cardinal s =
  let n = ref 0 in
  for w = 0 to Array.length s.words - 1 do
    n := !n + popcount s.words.(w)
  done;
  !n

let is_empty s =
  let rec loop w = w >= Array.length s.words || (s.words.(w) = 0 && loop (w + 1)) in
  loop 0

let check_compat a b op =
  if a.capacity <> b.capacity then
    invalid_arg
      (Printf.sprintf "Bitset.%s: capacities differ (%d vs %d)" op a.capacity b.capacity)

let binop op name a b =
  check_compat a b name;
  let words = Array.make (Array.length a.words) 0 in
  for w = 0 to Array.length words - 1 do
    words.(w) <- op a.words.(w) b.words.(w)
  done;
  { capacity = a.capacity; words }

let inter a b = binop ( land ) "inter" a b
let union a b = binop ( lor ) "union" a b
let diff a b = binop (fun x y -> x land lnot y) "diff" a b

let inter_cardinal a b =
  check_compat a b "inter_cardinal";
  let n = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    n := !n + popcount (a.words.(w) land b.words.(w))
  done;
  !n

let equal a b =
  check_compat a b "equal";
  let rec loop w =
    w >= Array.length a.words || (a.words.(w) = b.words.(w) && loop (w + 1))
  in
  loop 0

let subset a b =
  check_compat a b "subset";
  let rec loop w =
    w >= Array.length a.words || (a.words.(w) land lnot b.words.(w) = 0 && loop (w + 1))
  in
  loop 0

let disjoint a b =
  check_compat a b "disjoint";
  let rec loop w =
    w >= Array.length a.words || (a.words.(w) land b.words.(w) = 0 && loop (w + 1))
  in
  loop 0

let iter f s =
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) in
    while !word <> 0 do
      let b = !word land - !word in
      (* index of lowest set bit: count trailing zeros via popcount of b-1 *)
      let i = (w * bits_per_word) + popcount (b - 1) in
      f i;
      word := !word land lnot b
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list capacity xs =
  let s = create capacity in
  List.iter (add s) xs;
  s

let choose s =
  let rec loop w =
    if w >= Array.length s.words then raise Not_found
    else if s.words.(w) <> 0 then
      let b = s.words.(w) land -s.words.(w) in
      (w * bits_per_word) + popcount (b - 1)
    else loop (w + 1)
  in
  loop 0

let pp fmt s =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf fmt ", ";
      Format.fprintf fmt "%d" i)
    s;
  Format.fprintf fmt "}"
