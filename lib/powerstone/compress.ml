open Isa
open Asm

(* Memory map: input bytes at 0 (4096 * scale), dictionary keys after the
   input (4096 words, initialised to -1 = empty), dictionary values after
   the keys. Dictionary keys are (prefix_code << 8) | symbol; hashing is
   xor-folding; codes 0..255 are implicit single symbols and new codes
   start at 256. Checksum: v0 = v0 * 31 + code per emitted code. *)

let table_size = 4096

let first_code = 256

let max_code = table_size - 1

let make ~scale =
  if scale < 1 then invalid_arg "Compress.make: scale must be >= 1";
  let input_len = 4096 * scale in
  let keys_base = input_len in
  let vals_base = keys_base + table_size in
  let input = Data_gen.text_like ~seed:0xc0de input_len in
  let empty_keys = Array.make table_size (-1) in
  let program =
    concat
      [
        [
          comment "s0 = w (current prefix code), s1 = input index, s2 = next_code";
          i (Lw (s0, zero, 0));
          i (Addi (s1, zero, 1));
          i (Addi (s2, zero, first_code));
        ];
        li s3 input_len;
        li s5 keys_base;
        li s6 vals_base;
        [
          move v0 zero;
          label "next_symbol";
          i (Bge (s1, s3, "flush"));
          i (Lw (s4, s1, 0));
          comment "t0 = key = (w << 8) | c ; t1 = probe slot";
          i (Sll (t0, s0, 8));
          i (Or (t0, t0, s4));
          i (Srl (t1, t0, 6));
          i (Xor (t1, t0, t1));
          i (Srl (t2, t0, 12));
          i (Xor (t1, t1, t2));
          i (Andi (t1, t1, table_size - 1));
          label "probe";
          i (Add (t3, t1, s5));
          i (Lw (t4, t3, 0));
          i (Beq (t4, t0, "hit"));
          i (Addi (t5, zero, -1));
          i (Beq (t4, t5, "miss"));
          i (Addi (t1, t1, 1));
          i (Andi (t1, t1, table_size - 1));
          i (J "probe");
          label "hit";
          i (Add (t6, t1, s6));
          i (Lw (s0, t6, 0));
          i (Addi (s1, s1, 1));
          i (J "next_symbol");
          label "miss";
          comment "emit w, insert (key -> next_code) if the dictionary has room";
          i (Addi (t7, zero, 31));
          i (Mul (v0, v0, t7));
          i (Add (v0, v0, s0));
          i (Addi (t8, zero, max_code));
          i (Blt (t8, s2, "skip_insert"));
          i (Sw (t0, t3, 0));
          i (Add (t6, t1, s6));
          i (Sw (s2, t6, 0));
          i (Addi (s2, s2, 1));
          label "skip_insert";
          move s0 s4;
          i (Addi (s1, s1, 1));
          i (J "next_symbol");
          label "flush";
          i (Addi (t7, zero, 31));
          i (Mul (v0, v0, t7));
          i (Add (v0, v0, s0));
          i Halt;
        ];
      ]
  in
  let hash_of_key key = (key lxor (key lsr 6) lxor (key lsr 12)) land (table_size - 1) in
  let reference () =
    let keys = Array.make table_size (-1) in
    let vals = Array.make table_size 0 in
    let next_code = ref first_code in
    let w = ref input.(0) in
    let checksum = ref 0 in
    let emit code = checksum := W32.add (W32.mul !checksum 31) code in
    for idx = 1 to input_len - 1 do
      let c = input.(idx) in
      let key = (!w lsl 8) lor c in
      let rec probe slot =
        if keys.(slot) = key then `Hit vals.(slot)
        else if keys.(slot) = -1 then `Miss slot
        else probe ((slot + 1) land (table_size - 1))
      in
      match probe (hash_of_key key) with
      | `Hit code -> w := code
      | `Miss slot ->
        emit !w;
        if !next_code <= max_code then begin
          keys.(slot) <- key;
          vals.(slot) <- !next_code;
          incr next_code
        end;
        w := c
    done;
    emit !w;
    !checksum
  in
  {
    Workload.name = (if scale = 1 then "compress" else Printf.sprintf "compress@%d" scale);
    description =
      Printf.sprintf "LZW with open-addressing hash dictionary over %d text bytes" input_len;
    program;
    init = [ (0, input); (keys_base, empty_keys) ];
    mem_words = max 16384 (2 * (vals_base + table_size));
    max_steps = 5_000_000 * scale;
    reference;
  }
