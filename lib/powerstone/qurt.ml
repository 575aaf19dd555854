open Isa
open Asm

(* Memory map (count = 400 * scale): coefficient arrays a at 0, b at
   count, c at 2*count; root arrays r1 at 3*count, r2 at 4*count; call
   stack growing down from 5*count + 64. The integer Newton square root
   is a real subroutine with a stack frame (return address and
   callee-saved spills), as in the original compiled benchmark. A final
   pass re-reads both root arrays into the checksum. Checksum:
   v0 = v0 * 5 + (r1 + r2) per triple (3 marks a complex pair), then the
   wrapping sum of both root arrays. *)

let make ~scale =
  if scale < 1 then invalid_arg "Qurt.make: scale must be >= 1";
  let count = 400 * scale in
  let b_base = count in
  let c_base = 2 * count in
  let r1_base = 3 * count in
  let stack_top = (5 * count) + 64 in
  let coeff_a = Array.map (fun v -> 1 + v) (Data_gen.uniform ~seed:0x9a1 ~bound:20 count) in
  let coeff_b = Array.map (fun v -> v - 500) (Data_gen.uniform ~seed:0x9b2 ~bound:1001 count) in
  let coeff_c = Array.map (fun v -> v - 500) (Data_gen.uniform ~seed:0x9c3 ~bound:1001 count) in
  let program =
    concat
      [
        li sp stack_top;
        li s1 count;
        li s6 b_base;
        li s7 c_base;
        li gp r1_base;
        [
          move s0 zero;
          move v0 zero;
          label "triple";
          i (Bge (s0, s1, "readback"));
          i (Lw (t0, s0, 0));
          comment "t0 = a, t1 = b, t2 = c";
          i (Add (t3, s0, s6));
          i (Lw (t1, t3, 0));
          i (Add (t3, s0, s7));
          i (Lw (t2, t3, 0));
          comment "t4 = discriminant";
          i (Mul (t4, t1, t1));
          i (Mul (t5, t0, t2));
          i (Sll (t5, t5, 2));
          i (Sub (t4, t4, t5));
          i (Blt (t4, zero, "complex"));
          comment "call isqrt(disc); a and b survive in s2/s3 across the call";
          move s2 t0;
          move s3 t1;
          move a0 t4;
          i (Jal "isqrt");
          comment "roots r1 = (-b + s) / 2a, r2 = (-b - s) / 2a";
          i (Sub (t8, zero, s3));
          i (Add (t9, t8, v1));
          i (Sll (t5, s2, 1));
          i (Div (t9, t9, t5));
          i (Sub (t8, t8, v1));
          i (Div (t8, t8, t5));
          i (Add (t6, s0, gp));
          i (Sw (t9, t6, 0));
          i (Add (t6, t6, s1));
          i (Sw (t8, t6, 0));
          i (Add (t9, t9, t8));
          i (Addi (t7, zero, 5));
          i (Mul (v0, v0, t7));
          i (Add (v0, v0, t9));
          i (J "next");
          label "complex";
          i (Add (t6, s0, gp));
          i (Sw (zero, t6, 0));
          i (Add (t6, t6, s1));
          i (Sw (zero, t6, 0));
          i (Addi (t7, zero, 5));
          i (Mul (v0, v0, t7));
          i (Addi (v0, v0, 3));
          label "next";
          i (Addi (s0, s0, 1));
          i (J "triple");
          label "readback";
          move t0 zero;
          i (Sll (t1, s1, 1));
          label "sum_roots";
          i (Bge (t0, t1, "done"));
          i (Add (t2, t0, gp));
          i (Lw (t2, t2, 0));
          i (Add (v0, v0, t2));
          i (Addi (t0, t0, 1));
          i (J "sum_roots");
          label "done";
          i Halt;
          comment "-- int isqrt(a0): Newton iteration, v1 = floor(sqrt(a0))";
          label "isqrt";
          i (Addi (sp, sp, -3));
          i (Sw (ra, sp, 0));
          i (Sw (s4, sp, 1));
          i (Sw (s5, sp, 2));
          i (Beq (a0, zero, "isqrt_zero"));
          move s4 a0;
          i (Addi (s5, a0, 1));
          i (Sra (s5, s5, 1));
          label "newton";
          i (Bge (s5, s4, "isqrt_ret"));
          move s4 s5;
          i (Div (t8, a0, s4));
          i (Add (s5, s4, t8));
          i (Sra (s5, s5, 1));
          i (J "newton");
          label "isqrt_zero";
          move s4 zero;
          label "isqrt_ret";
          move v1 s4;
          i (Lw (ra, sp, 0));
          i (Lw (s4, sp, 1));
          i (Lw (s5, sp, 2));
          i (Addi (sp, sp, 3));
          i (Jr ra);
        ];
      ]
  in
  let isqrt_newton disc =
    if disc = 0 then 0
    else begin
      let x = ref disc in
      let y = ref (W32.sra (W32.add disc 1) 1) in
      while !y < !x do
        x := !y;
        y := W32.sra (W32.add !x (disc / !x)) 1
      done;
      !x
    end
  in
  let reference () =
    let checksum = ref 0 in
    let roots = Array.make (2 * count) 0 in
    for idx = 0 to count - 1 do
      let a = coeff_a.(idx) and b = coeff_b.(idx) and c = coeff_c.(idx) in
      let disc = W32.sub (W32.mul b b) (W32.sll (W32.mul a c) 2) in
      if disc < 0 then checksum := W32.add (W32.mul !checksum 5) 3
      else begin
        let s = isqrt_newton disc in
        let two_a = W32.sll a 1 in
        let r1 = W32.add (W32.sub 0 b) s / two_a in
        let r2 = W32.sub (W32.sub 0 b) s / two_a in
        roots.(idx) <- r1;
        roots.(count + idx) <- r2;
        checksum := W32.add (W32.mul !checksum 5) (W32.add r1 r2)
      end
    done;
    Array.iter (fun r -> checksum := W32.add !checksum r) roots;
    !checksum
  in
  {
    Workload.name = (if scale = 1 then "qurt" else Printf.sprintf "qurt@%d" scale);
    description =
      Printf.sprintf "quadratic roots over %d triples with a Newton isqrt subroutine" count;
    program;
    init = [ (0, coeff_a); (b_base, coeff_b); (c_base, coeff_c) ];
    mem_words = max 2048 (2 * stack_top);
    max_steps = 2_000_000 * scale;
    reference;
  }
