open Isa
open Asm

(* Memory map: 8 S-boxes of 64 entries at 0 (512 words), 16 round keys at
   512, blocks (L, R pairs) at 528 (64 * scale blocks), transformed in
   place. Round function: t = R xor K[r]; f = OR over i of
   sbox[i][(t >>> 4i) & 63] << 4i; (L, R) <- (R, L xor f).
   Checksum: v0 = rotl1(v0) xor L xor R after each block.

   DESIGN.md substitution note: the original benchmark is DES proper;
   this kernel keeps the DES structure (16 Feistel rounds, 8 S-box
   lookups per round through 512 words of tables, per-round subkeys)
   with synthetic S-box contents and a simplified key schedule, so the
   memory-access pattern — the only thing the cache study consumes — is
   preserved. *)

let num_rounds = 16

let keys_base = 512

let blocks_base = 528

let sboxes = Data_gen.uniform ~seed:0xde5b ~bound:16 512

let round_keys =
  Array.init num_rounds (fun r ->
      let spread = W32.mul 0x9E3779B9 (r + 1) in
      W32.sign32 (spread lxor W32.sll 0x2545F491 (r land 7)))

let make ~scale =
  if scale < 1 then invalid_arg "Des.make: scale must be >= 1";
  let num_blocks = 64 * scale in
  let blocks = Data_gen.lcg_stream ~seed:0xb10c (2 * num_blocks) in
  let program =
    concat
      [
        li s1 num_blocks;
        [
          move s0 zero;
          move v0 zero;
          label "block";
          i (Bge (s0, s1, "done"));
          i (Sll (s2, s0, 1));
          i (Addi (s2, s2, blocks_base));
          i (Lw (s3, s2, 0));
          comment "s3 = L, s4 = R";
          i (Lw (s4, s2, 1));
          move s5 zero;
          label "round";
          i (Addi (t0, zero, num_rounds));
          i (Bge (s5, t0, "writeback"));
          i (Addi (t0, s5, keys_base));
          i (Lw (t0, t0, 0));
          i (Xor (t0, s4, t0));
          comment "t1 = f accumulator; the eight s-box lookups are unrolled";
          move t1 zero;
        ];
        concat
          (List.init 8 (fun box ->
               [
                 i (Srl (t5, t0, 4 * box));
                 i (Andi (t5, t5, 0x3F));
                 i (Addi (t6, t5, box * 64));
                 i (Lw (t6, t6, 0));
                 i (Sll (t6, t6, 4 * box));
                 i (Or (t1, t1, t6));
               ]));
        [
          i (Xor (t7, s3, t1));
          move s3 s4;
          move s4 t7;
          i (Addi (s5, s5, 1));
          i (J "round");
          label "writeback";
          i (Sw (s3, s2, 0));
          i (Sw (s4, s2, 1));
          comment "checksum: v0 = rotl1(v0) xor L xor R";
          i (Sll (t8, v0, 1));
          i (Srl (t9, v0, 31));
          i (Or (v0, t8, t9));
          i (Xor (v0, v0, s3));
          i (Xor (v0, v0, s4));
          i (Addi (s0, s0, 1));
          i (J "block");
          label "done";
          i Halt;
        ];
      ]
  in
  let reference () =
    let state = Array.copy blocks in
    let checksum = ref 0 in
    for b = 0 to num_blocks - 1 do
      let left = ref state.(2 * b) and right = ref state.((2 * b) + 1) in
      for r = 0 to num_rounds - 1 do
        let t = W32.sign32 (!right lxor round_keys.(r)) in
        let f = ref 0 in
        for box = 0 to 7 do
          let six = W32.srl t (4 * box) land 0x3F in
          f := W32.sign32 (!f lor W32.sll sboxes.((box * 64) + six) (4 * box))
        done;
        let next_right = W32.sign32 (!left lxor !f) in
        left := !right;
        right := next_right
      done;
      state.(2 * b) <- !left;
      state.((2 * b) + 1) <- !right;
      let rotated = W32.sign32 (W32.sll !checksum 1 lor W32.srl !checksum 31) in
      checksum := W32.sign32 (rotated lxor !left lxor !right)
    done;
    !checksum
  in
  {
    Workload.name = (if scale = 1 then "des" else Printf.sprintf "des@%d" scale);
    description = Printf.sprintf "16-round table-driven Feistel cipher over %d blocks" num_blocks;
    program;
    init = [ (0, sboxes); (keys_base, round_keys); (blocks_base, blocks) ];
    mem_words = max 2048 (2 * (blocks_base + (2 * num_blocks)));
    max_steps = 2_000_000 * scale;
    reference;
  }
