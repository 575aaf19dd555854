open Isa
open Asm

(* Memory map: received 32-bit codewords at 0 (512 * scale), decoded-
   status array after them (message bits for accepted codewords, -1 for
   rejects), call stack growing down from the top of memory. A codeword
   is (bch31 << 1) | even_parity with bch31 = (data21 << 10) | remainder
   of data*x^10 mod g(x), g = x^10+x^9+x^8+x^6+x^5+x^3+1 (0x769 including
   the leading term). Parity and syndrome are subroutines with real stack
   frames. The kernel re-reads the status array for the final checksum:
   v0 = v0 * 17 + status per codeword. *)

let generator = 0x769

let make_codeword data21 =
  let dividend = data21 lsl 10 in
  let rem = ref dividend in
  for bit = 30 downto 10 do
    if !rem land (1 lsl bit) <> 0 then rem := !rem lxor (generator lsl (bit - 10))
  done;
  let bch31 = dividend lor !rem in
  let parity =
    let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
    count bch31 0 land 1
  in
  (bch31 lsl 1) lor parity

let make ~scale =
  if scale < 1 then invalid_arg "Pocsag.make: scale must be >= 1";
  let num_codewords = 512 * scale in
  let status_base = num_codewords + 64 in
  let stack_top = status_base + num_codewords + 256 in
  let codewords =
    let data = Data_gen.uniform ~seed:0x90c5 ~bound:(1 lsl 21) num_codewords in
    let noise = Data_gen.uniform ~seed:0x6015 ~bound:256 num_codewords in
    Array.init num_codewords (fun idx ->
        let cw = make_codeword data.(idx) in
        let cw = if noise.(idx) < 32 then cw lxor (1 lsl (noise.(idx) land 31)) else cw in
        W32.sign32 cw)
  in
  let program =
    concat
      [
        li sp stack_top;
        li s6 generator;
        li s1 num_codewords;
        li s7 status_base;
        [
          move s0 zero;
          label "codeword";
          i (Bge (s0, s1, "readback"));
          i (Lw (s2, s0, 0));
          move a0 s2;
          i (Jal "parity");
          move s3 v1;
          move a0 s2;
          i (Jal "syndrome");
          comment "accept iff syndrome = 0 and parity even";
          i (Bne (v1, zero, "reject"));
          i (Bne (s3, zero, "reject"));
          i (Srl (t9, s2, 11));
          i (J "record");
          label "reject";
          i (Addi (t9, zero, -1));
          label "record";
          i (Add (t8, s0, s7));
          i (Sw (t9, t8, 0));
          i (Addi (s0, s0, 1));
          i (J "codeword");
          label "readback";
          move v0 zero;
          move t0 zero;
          label "sum_status";
          i (Bge (t0, s1, "done"));
          i (Add (t2, t0, s7));
          i (Lw (t2, t2, 0));
          i (Addi (t3, zero, 17));
          i (Mul (v0, v0, t3));
          i (Add (v0, v0, t2));
          i (Addi (t0, t0, 1));
          i (J "sum_status");
          label "done";
          i Halt;
          comment "-- int parity(a0): population count of all 32 bits, mod 2";
          label "parity";
          i (Addi (sp, sp, -2));
          i (Sw (ra, sp, 0));
          i (Sw (s4, sp, 1));
          move s4 a0;
          move v1 zero;
          label "parity_loop";
          i (Beq (s4, zero, "parity_done"));
          i (Andi (t2, s4, 1));
          i (Add (v1, v1, t2));
          i (Srl (s4, s4, 1));
          i (J "parity_loop");
          label "parity_done";
          i (Andi (v1, v1, 1));
          i (Lw (ra, sp, 0));
          i (Lw (s4, sp, 1));
          i (Addi (sp, sp, 2));
          i (Jr ra);
          comment "-- int syndrome(a0): remainder of the 31-bit field mod g";
          label "syndrome";
          i (Addi (sp, sp, -3));
          i (Sw (ra, sp, 0));
          i (Sw (s4, sp, 1));
          i (Sw (s5, sp, 2));
          i (Srl (v1, a0, 1));
          i (Addi (s4, zero, 30));
          label "divide";
          i (Addi (s5, zero, 10));
          i (Blt (s4, s5, "divide_done"));
          i (Addi (t6, zero, 1));
          i (Sllv (t6, t6, s4));
          i (And (t7, v1, t6));
          i (Beq (t7, zero, "no_xor"));
          i (Addi (t8, s4, -10));
          i (Sllv (t8, s6, t8));
          i (Xor (v1, v1, t8));
          label "no_xor";
          i (Addi (s4, s4, -1));
          i (J "divide");
          label "divide_done";
          i (Lw (ra, sp, 0));
          i (Lw (s4, sp, 1));
          i (Lw (s5, sp, 2));
          i (Addi (sp, sp, 3));
          i (Jr ra);
        ];
      ]
  in
  let reference () =
    let status = Array.make num_codewords 0 in
    Array.iteri
      (fun idx cw ->
        let parity =
          let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
          count (W32.u32 cw) 0 land 1
        in
        let syndrome = ref (W32.srl cw 1) in
        for bit = 30 downto 10 do
          if !syndrome land (1 lsl bit) <> 0 then
            syndrome := !syndrome lxor (generator lsl (bit - 10))
        done;
        status.(idx) <- (if !syndrome = 0 && parity = 0 then W32.srl cw 11 else -1))
      codewords;
    Array.fold_left (fun acc st -> W32.add (W32.mul acc 17) st) 0 status
  in
  {
    Workload.name = (if scale = 1 then "pocsag" else Printf.sprintf "pocsag@%d" scale);
    description =
      Printf.sprintf "BCH(31,21) syndrome + parity subroutines over %d pager codewords"
        num_codewords;
    program;
    init = [ (0, codewords) ];
    mem_words = max 2048 (2 * stack_top);
    max_steps = 5_000_000 * scale;
    reference;
  }
