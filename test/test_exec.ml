(* Tests for the deterministic domain-pool executor: serial/parallel result
   equality, task-ordering stability, and exception propagation from worker
   domains. *)

exception Boom of int

let test_matches_serial () =
  let xs = Array.init 100 (fun i -> i) in
  let f i = (i * i) + 7 in
  let serial = Array.map f xs in
  Alcotest.(check (array int)) "jobs=1 = Array.map" serial (Exec.map ~jobs:1 f xs);
  Alcotest.(check (array int)) "jobs=4 = Array.map" serial (Exec.map ~jobs:4 f xs)

let test_seeded_sweep_equality () =
  (* a real seeded simulator sweep: fanning it across domains must give
     bit-identical outcome records in the same order as the serial run *)
  let run seed =
    let n = 16 in
    let cfg = Sim.Config.make ~n ~t_max:4 ~seed ~max_rounds:2000 () in
    let proto = Consensus.Bjbo.protocol_buffered cfg in
    let inputs = Array.init n (fun i -> i mod 2) in
    Sim.Engine.run proto cfg ~adversary:(Adversary.vote_splitter ()) ~inputs
  in
  let seeds = List.init 8 (fun i -> i + 1) in
  let serial = Exec.map_list ~jobs:1 run seeds in
  let parallel = Exec.map_list ~jobs:4 run seeds in
  Alcotest.(check bool) "outcome records bit-identical" true (serial = parallel);
  List.iter2
    (fun (a : Sim.Engine.outcome) b ->
      Alcotest.(check int) "same rand_bits" a.Sim.Engine.rand_bits
        b.Sim.Engine.rand_bits)
    serial parallel

let test_ordering_stable () =
  (* skew per-task work so completion order differs from submission order:
     slots must still come back in input order *)
  let n = 64 in
  let f i =
    let spin = (n - i) * 2000 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := !acc + (k mod 3)
    done;
    ignore !acc;
    i
  in
  let got = Exec.init ~jobs:4 n f in
  Alcotest.(check (array int)) "results in task order"
    (Array.init n (fun i -> i))
    got

let test_exception_propagation () =
  (* every task is attempted; the lowest-indexed failure is re-raised in
     the caller, deterministically *)
  let f i = if i = 11 || i = 37 then raise (Boom i) else i in
  Alcotest.check_raises "lowest-indexed exception wins" (Boom 11) (fun () ->
      ignore (Exec.init ~jobs:4 64 f));
  Alcotest.check_raises "serial path raises too" (Boom 11) (fun () ->
      ignore (Exec.init ~jobs:1 64 f))

let test_early_cancel () =
  (* once a failure is noted, higher-indexed tasks still pending are
     skipped — the raise does not wait for the whole batch *)
  let executed = Atomic.make 0 in
  let n = 600 in
  let f i =
    Atomic.incr executed;
    if i = 0 then raise (Boom 0);
    (* enough work per task that most of the batch is still pending when
       task 0's failure lands *)
    let acc = ref 0 in
    for k = 1 to 20_000 do
      acc := !acc + (k mod 7)
    done;
    ignore !acc;
    i
  in
  Alcotest.check_raises "task 0 failure propagates" (Boom 0) (fun () ->
      ignore (Exec.init ~jobs:4 n f));
  Alcotest.(check bool) "pending tasks were cancelled" true
    (Atomic.get executed < n);
  (* determinism of the propagated exception is untouched: a failure at
     the highest index can cancel nothing below it, so every lower task
     still runs (and would win if it failed) *)
  Atomic.set executed 0;
  let g i =
    Atomic.incr executed;
    if i = n - 1 then raise (Boom (n - 1)) else i
  in
  Alcotest.check_raises "highest-index failure cancels nothing"
    (Boom (n - 1)) (fun () -> ignore (Exec.init ~jobs:4 n g));
  Alcotest.(check int) "every task attempted" n (Atomic.get executed)

let test_empty_and_small () =
  Alcotest.(check (array int)) "empty input" [||]
    (Exec.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "single task" [| 9 |]
    (Exec.map ~jobs:4 (fun x -> x * 9) [| 1 |]);
  Alcotest.(check (list int)) "map_list order" [ 2; 4; 6 ]
    (Exec.map_list ~jobs:3 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_jobs_validation () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Exec.mapi: jobs must be >= 1") (fun () ->
      ignore (Exec.map ~jobs:0 (fun x -> x) [| 1; 2 |]));
  Alcotest.check_raises "negative default rejected"
    (Invalid_argument "Exec.set_default_jobs: jobs must be >= 0") (fun () ->
      Exec.set_default_jobs (-1))

let test_default_jobs () =
  let saved = Exec.default_jobs () in
  Exec.set_default_jobs 3;
  Alcotest.(check int) "override takes" 3 (Exec.default_jobs ());
  Exec.set_default_jobs 0;
  Alcotest.(check int) "0 restores recommended" (Exec.recommended_jobs ())
    (Exec.default_jobs ());
  Alcotest.(check bool) "recommended >= 1" true (Exec.recommended_jobs () >= 1);
  Exec.set_default_jobs saved

let suite =
  [
    Alcotest.test_case "matches serial map" `Quick test_matches_serial;
    Alcotest.test_case "seeded sweep: jobs 1 = jobs 4" `Quick
      test_seeded_sweep_equality;
    Alcotest.test_case "task ordering stable" `Quick test_ordering_stable;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "early cancel after failure" `Quick test_early_cancel;
    Alcotest.test_case "empty and small inputs" `Quick test_empty_and_small;
    Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
    Alcotest.test_case "default jobs override" `Quick test_default_jobs;
  ]
