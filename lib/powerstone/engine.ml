open Isa
open Asm

(* Memory map: 16x16 spark-advance map at 0 (row-major). The sensor
   stream is produced in-kernel by the classic LCG so the control flow
   includes the multiply-accumulate of the generator itself. Checksum:
   wrapping sum of the (clamped) advance values in v0. *)

let lcg_seed = 0xe6e

let advance_map = Array.init 256 (fun i -> ((i / 16 * 3) + (i mod 16 * 2)) mod 50)

let lcg_mul = 1103515245

let lcg_add = 12345

let make ~scale =
  if scale < 1 then invalid_arg "Engine.make: scale must be >= 1";
  let iterations = 2000 * scale in
  let program =
    concat
      [
        li s5 lcg_mul;
        li s6 lcg_add;
        li s0 lcg_seed;
        li s2 iterations;
        [
          move s1 zero;
          move v0 zero;
          label "sample";
          i (Bge (s1, s2, "done"));
          comment "draw rpm and load from the LCG (bits 16..23)";
          i (Mul (s0, s0, s5));
          i (Add (s0, s0, s6));
          i (Srl (t0, s0, 16));
          i (Andi (t0, t0, 0xFF));
          i (Mul (s0, s0, s5));
          i (Add (s0, s0, s6));
          i (Srl (t1, s0, 16));
          i (Andi (t1, t1, 0xFF));
          comment "integer cell (t2, t3) and fractions (t4, t5)";
          i (Srl (t2, t0, 4));
          i (Andi (t4, t0, 0xF));
          i (Srl (t3, t1, 4));
          i (Andi (t5, t1, 0xF));
          comment "clamped neighbour cell (t6, t7)";
          i (Addi (t6, t2, 1));
          i (Slti (t8, t6, 16));
          i (Bne (t8, zero, "row_ok"));
          i (Addi (t6, zero, 15));
          label "row_ok";
          i (Addi (t7, t3, 1));
          i (Slti (t8, t7, 16));
          i (Bne (t8, zero, "col_ok"));
          i (Addi (t7, zero, 15));
          label "col_ok";
          comment "fetch the four map corners";
          i (Sll (t8, t2, 4));
          i (Add (t9, t8, t3));
          i (Lw (a0, t9, 0));
          i (Add (t9, t8, t7));
          i (Lw (a1, t9, 0));
          i (Sll (t8, t6, 4));
          i (Add (t9, t8, t3));
          i (Lw (a2, t9, 0));
          i (Add (t9, t8, t7));
          i (Lw (a3, t9, 0));
          comment "bilinear blend: rows by t5, then columns by t4";
          i (Addi (t8, zero, 16));
          i (Sub (t9, t8, t5));
          i (Mul (a0, a0, t9));
          i (Mul (a1, a1, t5));
          i (Add (a0, a0, a1));
          i (Mul (a2, a2, t9));
          i (Mul (a3, a3, t5));
          i (Add (a2, a2, a3));
          i (Sub (t9, t8, t4));
          i (Mul (a0, a0, t9));
          i (Mul (a2, a2, t4));
          i (Add (a0, a0, a2));
          i (Sra (a0, a0, 8));
          comment "knock guard: clamp advance at 40 degrees";
          i (Slti (t8, a0, 41));
          i (Bne (t8, zero, "accumulate"));
          i (Addi (a0, zero, 40));
          label "accumulate";
          i (Add (v0, v0, a0));
          i (Addi (s1, s1, 1));
          i (J "sample");
          label "done";
          i Halt;
        ];
      ]
  in
  let reference () =
    let x = ref (W32.sign32 lcg_seed) in
    let draw () =
      x := W32.add (W32.mul !x lcg_mul) lcg_add;
      W32.srl !x 16 land 0xFF
    in
    let checksum = ref 0 in
    for _sample = 1 to iterations do
      let rpm = draw () in
      let load = draw () in
      let i0 = rpm lsr 4 and fi = rpm land 0xF in
      let j0 = load lsr 4 and fj = load land 0xF in
      let i1 = min (i0 + 1) 15 and j1 = min (j0 + 1) 15 in
      let m r c = advance_map.((r * 16) + c) in
      let top = (m i0 j0 * (16 - fj)) + (m i0 j1 * fj) in
      let bottom = (m i1 j0 * (16 - fj)) + (m i1 j1 * fj) in
      let advance = ((top * (16 - fi)) + (bottom * fi)) asr 8 in
      let advance = min advance 40 in
      checksum := W32.add !checksum advance
    done;
    !checksum
  in
  {
    Workload.name = (if scale = 1 then "engine" else Printf.sprintf "engine@%d" scale);
    description =
      Printf.sprintf "spark-advance controller: bilinear 16x16 map lookups over %d samples"
        iterations;
    program;
    init = [ (0, advance_map) ];
    mem_words = 1024;
    max_steps = 2_000_000 * scale;
    reference;
  }
