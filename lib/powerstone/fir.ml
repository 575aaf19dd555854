open Isa
open Asm

(* Memory map (for a given scale): samples x at 0 (512 * scale), taps h
   just after, outputs y after a 16-word gap. Checksum: wrapping sum of
   the outputs in v0. *)

let num_taps = 32

let make ~scale =
  if scale < 1 then invalid_arg "Fir.make: scale must be >= 1";
  let num_samples = 512 * scale in
  let taps_base = num_samples in
  let output_base = num_samples + num_taps + 16 in
  let samples = Array.map (fun v -> v - 1000) (Data_gen.uniform ~seed:0xf1f ~bound:2001 num_samples) in
  let taps = Array.map (fun v -> v - 8) (Data_gen.uniform ~seed:0x7a9 ~bound:17 num_taps) in
  let program =
    concat
      [
        [
          move s0 zero;
        ];
        li s1 (num_samples - num_taps + 1);
        [
          move v0 zero;
          label "outer";
          i (Bge (s0, s1, "done"));
          move t3 zero;
          move t4 zero;
          i (Addi (t5, zero, num_taps));
          label "inner";
          i (Bge (t4, t5, "emit"));
          i (Add (t6, s0, t4));
          i (Addi (t7, t4, taps_base));
        ];
        (* the multiply-accumulate is unrolled four-fold *)
        concat
          (List.init 4 (fun k ->
               [
                 i (Lw (a0, t6, k));
                 i (Lw (a1, t7, k));
                 i (Mul (a1, a0, a1));
                 i (Add (t3, t3, a1));
               ]));
        [
          i (Addi (t4, t4, 4));
          i (J "inner");
          label "emit";
        ];
        li t8 output_base;
        [
          i (Add (t8, s0, t8));
          i (Sw (t3, t8, 0));
          i (Add (v0, v0, t3));
          i (Addi (s0, s0, 1));
          i (J "outer");
          label "done";
          i Halt;
        ];
      ]
  in
  let reference () =
    let checksum = ref 0 in
    for n = 0 to num_samples - num_taps do
      let acc = ref 0 in
      for k = 0 to num_taps - 1 do
        acc := W32.add !acc (W32.mul samples.(n + k) taps.(k))
      done;
      checksum := W32.add !checksum !acc
    done;
    !checksum
  in
  {
    Workload.name = (if scale = 1 then "fir" else Printf.sprintf "fir@%d" scale);
    description = Printf.sprintf "%d-tap integer FIR filter over %d samples" num_taps num_samples;
    program;
    init = [ (0, samples); (taps_base, taps) ];
    mem_words = max 2048 (2 * (output_base + num_samples));
    max_steps = 2_000_000 * scale;
    reference;
  }
