open Isa
open Asm

(* Memory map: step-size table at 0 (89), index-adjust table at 96 (16),
   input samples at 128 (800 * scale), output codes just after. Checksum:
   v0 = v0 * 31 + code per sample, plus the final predictor. *)

let step_table =
  [|
    7; 8; 9; 10; 11; 12; 13; 14; 16; 17; 19; 21; 23; 25; 28; 31; 34; 37; 41; 45;
    50; 55; 60; 66; 73; 80; 88; 97; 107; 118; 130; 143; 157; 173; 190; 209; 230;
    253; 279; 307; 337; 371; 408; 449; 494; 544; 598; 658; 724; 796; 876; 963;
    1060; 1166; 1282; 1411; 1552; 1707; 1878; 2066; 2272; 2499; 2749; 3024;
    3327; 3660; 4026; 4428; 4871; 5358; 5894; 6484; 7132; 7845; 8630; 9493;
    10442; 11487; 12635; 13899; 15289; 16818; 18500; 20350; 22385; 24623;
    27086; 29794; 32767;
  |]

let index_table = [| -1; -1; -1; -1; 2; 4; 6; 8; -1; -1; -1; -1; 2; 4; 6; 8 |]

let index_base = 96

let sample_base = 128

let make ~scale =
  if scale < 1 then invalid_arg "Adpcm.make: scale must be >= 1";
  let num_samples = 800 * scale in
  let output_base = sample_base + num_samples in
  let samples = Data_gen.waveform ~seed:0xada num_samples in
  let program =
      concat
        [
          li s3 num_samples;
          li s4 output_base;
          [
            move s0 zero;
            comment "s0 = predicted value, s1 = step index, s2 = sample counter";
            move s1 zero;
            move s2 zero;
            move v0 zero;
            label "sample";
            i (Bge (s2, s3, "finish"));
            i (Addi (t0, s2, sample_base));
            i (Lw (t0, t0, 0));
            comment "t1 = |delta|, t2 = sign nibble";
            i (Sub (t1, t0, s0));
            move t2 zero;
            i (Bge (t1, zero, "positive"));
            i (Addi (t2, zero, 8));
            i (Sub (t1, zero, t1));
            label "positive";
            i (Lw (t3, s1, 0));
            comment "t3 = step, t4 = vpdiff, t5 = code";
            i (Sra (t4, t3, 3));
            move t5 zero;
            i (Blt (t1, t3, "bit2"));
            i (Ori (t5, t5, 4));
            i (Sub (t1, t1, t3));
            i (Add (t4, t4, t3));
            label "bit2";
            i (Sra (t3, t3, 1));
            i (Blt (t1, t3, "bit1"));
            i (Ori (t5, t5, 2));
            i (Sub (t1, t1, t3));
            i (Add (t4, t4, t3));
            label "bit1";
            i (Sra (t3, t3, 1));
            i (Blt (t1, t3, "apply"));
            i (Ori (t5, t5, 1));
            i (Add (t4, t4, t3));
            label "apply";
            i (Beq (t2, zero, "add_diff"));
            i (Sub (s0, s0, t4));
            i (J "clamp");
            label "add_diff";
            i (Add (s0, s0, t4));
            label "clamp";
            i (Addi (t6, zero, 32767));
            i (Bge (t6, s0, "clamp_low"));
            move s0 t6;
            label "clamp_low";
            i (Addi (t6, zero, -32768));
            i (Bge (s0, t6, "code_done"));
            move s0 t6;
            label "code_done";
            i (Or (t5, t5, t2));
            comment "step-index update via the adjust table";
            i (Addi (t7, t5, index_base));
            i (Lw (t7, t7, 0));
            i (Add (s1, s1, t7));
            i (Bge (s1, zero, "index_high"));
            move s1 zero;
            label "index_high";
            i (Addi (t6, zero, 88));
            i (Bge (t6, s1, "emit"));
            move s1 t6;
            label "emit";
            i (Add (t8, s2, s4));
            i (Sw (t5, t8, 0));
            i (Addi (t9, zero, 31));
            i (Mul (v0, v0, t9));
            i (Add (v0, v0, t5));
            i (Addi (s2, s2, 1));
            i (J "sample");
            label "finish";
            i (Add (v0, v0, s0));
            i Halt;
          ];
        ]
  in
  let reference () =
    let valpred = ref 0 in
    let index = ref 0 in
    let checksum = ref 0 in
    Array.iter
      (fun sample ->
        let delta = sample - !valpred in
        let sign = if delta < 0 then 8 else 0 in
        let delta = ref (abs delta) in
        let step = ref step_table.(!index) in
        let vpdiff = ref (!step asr 3) in
        let code = ref 0 in
        if !delta >= !step then begin
          code := !code lor 4;
          delta := !delta - !step;
          vpdiff := !vpdiff + !step
        end;
        step := !step asr 1;
        if !delta >= !step then begin
          code := !code lor 2;
          delta := !delta - !step;
          vpdiff := !vpdiff + !step
        end;
        step := !step asr 1;
        if !delta >= !step then begin
          code := !code lor 1;
          vpdiff := !vpdiff + !step
        end;
        valpred := (if sign = 8 then !valpred - !vpdiff else !valpred + !vpdiff);
        if !valpred > 32767 then valpred := 32767;
        if !valpred < -32768 then valpred := -32768;
        let code = !code lor sign in
        index := !index + index_table.(code);
        if !index < 0 then index := 0;
        if !index > 88 then index := 88;
        checksum := W32.add (W32.mul !checksum 31) code)
      samples;
    W32.add !checksum !valpred
  in

  {
    Workload.name = (if scale = 1 then "adpcm" else Printf.sprintf "adpcm@%d" scale);
    description = Printf.sprintf "IMA ADPCM encoder over %d waveform samples" num_samples;
    program;
    init = [ (0, step_table); (index_base, index_table); (sample_base, samples) ];
    mem_words = max 2048 (2 * (output_base + num_samples));
    max_steps = 2_000_000 * scale;
    reference;
  }
