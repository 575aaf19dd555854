(* Slicing-by-8: [table.(k * 256 + n)] is the CRC of byte [n] followed
   by [k] zero bytes, so eight bytes fold in with eight independent
   lookups instead of a chain of eight. Row 0 is the classic
   byte-at-a-time table, which folds the unaligned head and tail.

   Built eagerly at module initialisation: the table is read from every
   domain that frames a message, and in OCaml 5 two domains forcing one
   shared lazy value at the same time can raise [Undefined] (from
   CamlinternalLazy) in the loser. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

let init = 0xFFFFFFFF

let finalize crc = (crc lxor 0xFFFFFFFF) land 0xFFFFFFFF

(* Indices are masked to a byte plus a row offset below 2048, so the
   lookups skip their bounds checks. *)
let[@inline] row k n = Array.unsafe_get table ((k lsl 8) lor (n land 0xFF))

let update_byte crc b i = row 0 (crc lxor Char.code (Bytes.unsafe_get b i)) lxor (crc lsr 8)

let update_sub crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Crc32.update_sub";
  let crc = ref crc and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let lo = !crc lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    crc :=
      row 7 lo lxor row 6 (lo lsr 8) lxor row 5 (lo lsr 16) lxor row 4 (lo lsr 24)
      lxor row 3 hi lxor row 2 (hi lsr 8) lxor row 1 (hi lsr 16) lxor row 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    crc := update_byte !crc b j
  done;
  !crc

let digest_string s = finalize (update_sub init (Bytes.unsafe_of_string s) 0 (String.length s))
