open Isa
open Asm

(* Memory map: packed nibble stream at 0, run-length decode table after
   it (16 entries: n -> n for 0..14, 15 -> 255 meaning "add 15 and
   continue"), scanline pixel buffer after the table. Runs alternate
   colour starting white (0) each line; every decoded pixel is stored to
   the line buffer. Checksum: v0 accumulates colour xor column per pixel
   plus a line marker. *)

let width = 400

let decode_table = Array.init 16 (fun n -> if n = 15 then 255 else n)

let make ~scale =
  if scale < 1 then invalid_arg "G3fax.make: scale must be >= 1";
  let lines = 24 * scale in
  let stream, nibble_count = Data_gen.runs_bitstream ~seed:0xfa2 ~lines ~width in
  let table_base = Array.length stream + 16 in
  let line_base = table_base + 16 in
  let program =
    concat
      [
        [
          comment "s0 = nibble index, s1 = run accumulator, s2 = colour";
          move s0 zero;
          move s1 zero;
          move s2 zero;
          comment "s3 = column within line, v0 = checksum";
          move s3 zero;
          move v0 zero;
        ];
        li s4 nibble_count;
        li s5 table_base;
        li s6 line_base;
        [
          label "next_nibble";
          i (Bge (s0, s4, "done"));
          comment "fetch nibble t3 = (stream[idx>>3] >>> (4*(idx&7))) & 15";
          i (Srl (t0, s0, 3));
          i (Lw (t1, t0, 0));
          i (Andi (t2, s0, 7));
          i (Sll (t2, t2, 2));
          i (Srlv (t1, t1, t2));
          i (Andi (t3, t1, 0xF));
          i (Add (t4, t3, s5));
          i (Lw (t4, t4, 0));
          i (Addi (s0, s0, 1));
          i (Addi (t5, zero, 255));
          i (Bne (t4, t5, "run_complete"));
          i (Addi (s1, s1, 15));
          i (J "next_nibble");
          label "run_complete";
          i (Add (s1, s1, t4));
          comment "paint s1 pixels of colour s2 at column s3";
          move t6 zero;
          label "paint";
          i (Bge (t6, s1, "run_done"));
          i (Add (t7, s3, t6));
          i (Add (t8, t7, s6));
          i (Sw (s2, t8, 0));
          i (Xor (t9, s2, t7));
          i (Add (v0, v0, t9));
          i (Addi (t6, t6, 1));
          i (J "paint");
          label "run_done";
          i (Add (s3, s3, s1));
          move s1 zero;
          i (Xori (s2, s2, 1));
          i (Addi (t0, zero, width));
          i (Blt (s3, t0, "next_nibble"));
          comment "end of line: reset column and colour, mark the line";
          move s3 zero;
          move s2 zero;
          i (Addi (v0, v0, 7));
          i (J "next_nibble");
          label "done";
          i Halt;
        ];
      ]
  in
  let reference () =
    let checksum = ref 0 in
    let column = ref 0 in
    let colour = ref 0 in
    let run = ref 0 in
    for idx = 0 to nibble_count - 1 do
      let nibble = (stream.(idx / 8) lsr (4 * (idx mod 8))) land 0xF in
      let entry = decode_table.(nibble) in
      if entry = 255 then run := !run + 15
      else begin
        run := !run + entry;
        for p = 0 to !run - 1 do
          checksum := W32.add !checksum (!colour lxor (!column + p))
        done;
        column := !column + !run;
        run := 0;
        colour := !colour lxor 1;
        if !column >= width then begin
          column := 0;
          colour := 0;
          checksum := W32.add !checksum 7
        end
      end
    done;
    !checksum
  in
  {
    Workload.name = (if scale = 1 then "g3fax" else Printf.sprintf "g3fax@%d" scale);
    description = Printf.sprintf "fax run-length decoder: %d scanlines of %d pixels" lines width;
    program;
    init = [ (0, stream); (table_base, decode_table) ];
    mem_words = max 8192 (2 * (line_base + width));
    max_steps = 5_000_000 * scale;
    reference;
  }
