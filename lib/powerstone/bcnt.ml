open Isa
open Asm

(* Memory map: nibble popcount table at 0 (16 words), data at 16
   (2048 * scale words). Checksum: total bit count in v0. *)

let data_base = 16

let nibble_table =
  Array.init 16 (fun v ->
      let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
      count v 0)

(* The eight nibble lookups are fully unrolled, as the original compiled
   kernel's inner loop was. *)
let nibble_step _k =
  [ i (Andi (t4, t2, 0xF)); i (Lw (t4, t4, 0)); i (Add (v0, v0, t4)); i (Srl (t2, t2, 4)) ]

let make ~scale =
  if scale < 1 then invalid_arg "Bcnt.make: scale must be >= 1";
  let data_words = 2048 * scale in
  let data = Data_gen.lcg_stream ~seed:0x5eed data_words in
  let program =
    concat
      [
        li t0 data_base;
        li t1 (data_base + data_words);
        [
          move v0 zero;
          label "word_loop";
          i (Bge (t0, t1, "done"));
          i (Lw (t2, t0, 0));
        ];
        concat (List.init 8 nibble_step);
        [
          i (Addi (t0, t0, 1));
          i (J "word_loop");
          label "done";
          i Halt;
        ];
      ]
  in
  let reference () =
    let total = ref 0 in
    Array.iter
      (fun w ->
        let u = W32.u32 w in
        let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
        total := W32.add !total (count u 0))
      data;
    !total
  in
  {
    Workload.name = (if scale = 1 then "bcnt" else Printf.sprintf "bcnt@%d" scale);
    description = Printf.sprintf "bit counting over %d words via nibble lookup table" data_words;
    program;
    init = [ (0, nibble_table); (data_base, data) ];
    mem_words = max 4096 (2 * (data_base + data_words));
    max_steps = 2_000_000 * scale;
    reference;
  }
