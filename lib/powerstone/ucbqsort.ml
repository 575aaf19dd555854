open Isa
open Asm

(* Memory map: keys at 0 (1024 * scale), the work stack of (lo, hi)
   pairs after them. Partitioning is Lomuto with the middle element as
   pivot; ranges shorter than 8 are finished by insertion sort.
   Checksum: v0 = sum of a.(i) xor i over the sorted array (wrapping),
   which any correct sort must reproduce. *)

let make ~scale =
  if scale < 1 then invalid_arg "Ucbqsort.make: scale must be >= 1";
  let count = 1024 * scale in
  let stack_base = count + 64 in
  let keys = Data_gen.uniform ~seed:0x5042 ~bound:100000 count in
  let program =
    concat
      [
        li s7 stack_base;
        [
          comment "push the initial range (0, count-1); s0 = stack pointer";
          move s0 s7;
          i (Sw (zero, s0, 0));
        ];
        li t0 (count - 1);
        [
          i (Sw (t0, s0, 1));
          i (Addi (s0, s0, 2));
          label "work_loop";
          i (Bge (s7, s0, "checksum"));
          comment "pop (s1 = lo, s2 = hi)";
          i (Addi (s0, s0, -2));
          i (Lw (s1, s0, 0));
          i (Lw (s2, s0, 1));
          i (Bge (s1, s2, "work_loop"));
          i (Sub (t0, s2, s1));
          i (Slti (t1, t0, 8));
          i (Bne (t1, zero, "insertion"));
          comment "swap the middle element to the top: pivot in t2";
          i (Add (t0, s1, s2));
          i (Sra (t0, t0, 1));
          i (Lw (t2, t0, 0));
          i (Lw (t3, s2, 0));
          i (Sw (t3, t0, 0));
          i (Sw (t2, s2, 0));
          comment "Lomuto partition: t4 = i, t5 = j";
          i (Addi (t4, s1, -1));
          move t5 s1;
          label "part_loop";
          i (Bge (t5, s2, "part_done"));
          i (Lw (t6, t5, 0));
          i (Blt (t2, t6, "part_next"));
          i (Addi (t4, t4, 1));
          i (Lw (t7, t4, 0));
          i (Sw (t6, t4, 0));
          i (Sw (t7, t5, 0));
          label "part_next";
          i (Addi (t5, t5, 1));
          i (J "part_loop");
          label "part_done";
          i (Addi (t4, t4, 1));
          i (Lw (t7, t4, 0));
          i (Lw (t6, s2, 0));
          i (Sw (t6, t4, 0));
          i (Sw (t7, s2, 0));
          comment "push (lo, p-1) and (p+1, hi)";
          i (Addi (t5, t4, -1));
          i (Sw (s1, s0, 0));
          i (Sw (t5, s0, 1));
          i (Addi (s0, s0, 2));
          i (Addi (t5, t4, 1));
          i (Sw (t5, s0, 0));
          i (Sw (s2, s0, 1));
          i (Addi (s0, s0, 2));
          i (J "work_loop");
          label "insertion";
          i (Addi (t0, s1, 1));
          label "ins_outer";
          i (Blt (s2, t0, "work_loop"));
          i (Lw (t1, t0, 0));
          i (Addi (t2, t0, -1));
          label "ins_inner";
          i (Blt (t2, s1, "ins_place"));
          i (Lw (t3, t2, 0));
          i (Bge (t1, t3, "ins_place"));
          i (Sw (t3, t2, 1));
          i (Addi (t2, t2, -1));
          i (J "ins_inner");
          label "ins_place";
          i (Sw (t1, t2, 1));
          i (Addi (t0, t0, 1));
          i (J "ins_outer");
          label "checksum";
          move v0 zero;
          move t0 zero;
        ];
        li t1 count;
        [
          label "sum_loop";
          i (Bge (t0, t1, "done"));
          i (Lw (t2, t0, 0));
          i (Xor (t2, t2, t0));
          i (Add (v0, v0, t2));
          i (Addi (t0, t0, 1));
          i (J "sum_loop");
          label "done";
          i Halt;
        ];
      ]
  in
  let reference () =
    let sorted = Array.copy keys in
    Array.sort compare sorted;
    let checksum = ref 0 in
    Array.iteri (fun idx v -> checksum := W32.add !checksum (v lxor idx)) sorted;
    !checksum
  in
  {
    Workload.name = (if scale = 1 then "ucbqsort" else Printf.sprintf "ucbqsort@%d" scale);
    description =
      Printf.sprintf "iterative quicksort with insertion-sort cutoff over %d keys" count;
    program;
    init = [ (0, keys) ];
    mem_words = max 8192 (4 * count);
    max_steps = 5_000_000 * scale;
    reference;
  }
