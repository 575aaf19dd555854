(* Built eagerly at module initialisation: the table is read from every
   domain that frames a message, and in OCaml 5 two domains forcing one
   shared lazy value at the same time can raise [Undefined] (from
   CamlinternalLazy) in the loser. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let init = 0xFFFFFFFF

let finalize crc = (crc lxor 0xFFFFFFFF) land 0xFFFFFFFF

let update_sub crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Crc32.update_sub";
  let crc = ref crc in
  for i = off to off + len - 1 do
    crc := table.((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc

let digest_string s = finalize (update_sub init (Bytes.unsafe_of_string s) 0 (String.length s))
