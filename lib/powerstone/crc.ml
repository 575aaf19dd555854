open Isa
open Asm

(* Memory map: CRC table at 0 (256 words, written by the program itself),
   input bytes (one per word) at 256 (4096 * scale). Checksum: the CRC in
   v0. *)

let data_base = 256

let polynomial = 0xEDB88320

let make ~scale =
  if scale < 1 then invalid_arg "Crc.make: scale must be >= 1";
  let data_bytes = 4096 * scale in
  let data = Data_gen.uniform ~seed:0xc4c ~bound:256 data_bytes in
  let program =
    concat
      [
        [
          comment "phase 1: build the reflected CRC-32 table in place";
          move t0 zero;
          i (Addi (t1, zero, 256));
        ];
        li t6 polynomial;
        [
          label "build";
          i (Bge (t0, t1, "digest_setup"));
          move t2 t0;
        ];
        (* eight unrolled bit steps of the table construction *)
        concat
          (List.init 8 (fun bit ->
               let skip = Printf.sprintf "no_poly_%d" bit in
               [
                 i (Andi (t4, t2, 1));
                 i (Srl (t2, t2, 1));
                 i (Beq (t4, zero, skip));
                 i (Xor (t2, t2, t6));
                 label skip;
               ]));
        [
          i (Sw (t2, t0, 0));
          i (Addi (t0, t0, 1));
          i (J "build");
          label "digest_setup";
        ];
        li t0 data_base;
        li t1 (data_base + data_bytes);
        [
          i (Addi (v0, zero, -1));
          label "digest";
          i (Bge (t0, t1, "final"));
          i (Lw (t2, t0, 0));
          i (Xor (t3, v0, t2));
          i (Andi (t3, t3, 0xFF));
          i (Lw (t3, t3, 0));
          i (Srl (t4, v0, 8));
          i (Xor (v0, t4, t3));
          i (Addi (t0, t0, 1));
          i (J "digest");
          label "final";
          i (Addi (t5, zero, -1));
          i (Xor (v0, v0, t5));
          i Halt;
        ];
      ]
  in
  let reference () =
    let table = Array.make 256 0 in
    for b = 0 to 255 do
      let r = ref b in
      for _bit = 1 to 8 do
        let lsb = !r land 1 in
        r := W32.srl !r 1;
        if lsb = 1 then r := W32.sign32 (!r lxor W32.sign32 polynomial)
      done;
      table.(b) <- !r
    done;
    let crc = ref (-1) in
    Array.iter
      (fun byte ->
        let idx = (!crc lxor byte) land 0xFF in
        crc := W32.sign32 (W32.srl !crc 8 lxor table.(idx)))
      data;
    W32.sign32 (!crc lxor -1)
  in
  {
    Workload.name = (if scale = 1 then "crc" else Printf.sprintf "crc@%d" scale);
    description =
      Printf.sprintf "table-driven CRC-32 over %d bytes, table built in-kernel" data_bytes;
    program;
    init = [ (data_base, data) ];
    mem_words = max 8192 (2 * (data_base + data_bytes));
    max_steps = 2_000_000 * scale;
    reference;
  }
