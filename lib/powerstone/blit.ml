open Isa
open Asm

(* Memory map: source bitmap (rows x 8 words) at 0, destination bitmap
   (rows x 16 words) right after. Each source row is OR-blitted into the
   destination at word offset 3, bit offset 5. Checksum: xor of all
   destination words in v0. *)

let src_words_per_row = 8

let dst_words_per_row = 16

let bit_offset = 5

let word_offset = 3

let make ~scale =
  if scale < 1 then invalid_arg "Blit.make: scale must be >= 1";
  let rows = 64 * scale in
  let src_base = 0 in
  let dst_base = rows * src_words_per_row in
  let src = Data_gen.lcg_stream ~seed:0xb117 (rows * src_words_per_row) in
  let dst_init =
    Array.map (fun v -> v land 0x0F0F0F0F) (Data_gen.lcg_stream ~seed:0x0d57 (rows * dst_words_per_row))
  in
  let program =
    concat
      [
        li s6 (dst_base + word_offset);
        li s1 rows;
        [
          move s0 zero;
          label "row_loop";
          i (Bge (s0, s1, "checksum"));
          comment "s2 = source row pointer, s3 = destination row pointer";
          i (Sll (s2, s0, 3));
          i (Sll (s3, s0, 4));
          i (Add (s3, s3, s6));
          move s4 zero;
          comment "s4 = carry bits from the previous source word";
          move t0 zero;
          i (Addi (t1, zero, src_words_per_row));
          label "col_loop";
          i (Bge (t0, t1, "flush_carry"));
          i (Add (t2, s2, t0));
          i (Lw (t2, t2, 0));
          i (Sll (t3, t2, bit_offset));
          i (Or (t3, t3, s4));
          i (Add (t4, s3, t0));
          i (Lw (t5, t4, 0));
          i (Or (t5, t5, t3));
          i (Sw (t5, t4, 0));
          i (Srl (s4, t2, 32 - bit_offset));
          i (Addi (t0, t0, 1));
          i (J "col_loop");
          label "flush_carry";
          i (Add (t4, s3, t0));
          i (Lw (t5, t4, 0));
          i (Or (t5, t5, s4));
          i (Sw (t5, t4, 0));
          i (Addi (s0, s0, 1));
          i (J "row_loop");
          label "checksum";
          move v0 zero;
        ];
        li t0 dst_base;
        li t1 (dst_base + (rows * dst_words_per_row));
        [
          label "sum_loop";
          i (Bge (t0, t1, "done"));
          i (Lw (t2, t0, 0));
          i (Xor (v0, v0, t2));
          i (Addi (t0, t0, 1));
          i (J "sum_loop");
          label "done";
          i Halt;
        ];
      ]
  in
  let reference () =
    let dst = Array.copy dst_init in
    for r = 0 to rows - 1 do
      let carry = ref 0 in
      for c = 0 to src_words_per_row - 1 do
        let w = src.((r * src_words_per_row) + c) in
        let shifted = W32.sign32 (W32.sll w bit_offset lor !carry) in
        let d = (r * dst_words_per_row) + word_offset + c in
        dst.(d) <- W32.sign32 (dst.(d) lor shifted);
        carry := W32.srl w (32 - bit_offset)
      done;
      let d = (r * dst_words_per_row) + word_offset + src_words_per_row in
      dst.(d) <- W32.sign32 (dst.(d) lor !carry)
    done;
    Array.fold_left (fun acc w -> W32.sign32 (acc lxor w)) 0 dst
  in
  {
    Workload.name = (if scale = 1 then "blit" else Printf.sprintf "blit@%d" scale);
    description =
      Printf.sprintf "bit-aligned %d-row bitmap OR-blit with carry propagation" rows;
    program;
    init = [ (src_base, src); (dst_base, dst_init) ];
    mem_words = max 2048 (2 * (dst_base + (rows * dst_words_per_row)));
    max_steps = 2_000_000 * scale;
    reference;
  }
