(* Regression test for the CRC-32 table under concurrent first use. The
   first thing this process does with [Crc32] is digest from 8 domains
   released together by an atomic barrier; a table built on first use
   can raise in the domains that lose that race. The dune rule runs
   this executable 20 times, each in a fresh process, because the race
   only exists before the first digest of a process. *)

let domains = 8

(* the standard CRC-32 check value of "123456789" *)
let check_value = 0xCBF43926

let () =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Crc32.digest_string "123456789"))
  in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  List.iter
    (fun worker ->
      let digest = Domain.join worker in
      if digest <> check_value then begin
        Printf.eprintf "crc_race: digest %08x, expected %08x\n" digest check_value;
        exit 1
      end)
    workers
