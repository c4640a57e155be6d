(* Tests for the biased-majority thresholds (Figure 3) and the phase-king
   fallback. *)

let counted_rand () =
  let c = Sim.Rand.Counter.create () in
  (Sim.Rand.create ~counter:c ~seed:3L (), c)

let test_update_forced_one () =
  let rand, c = counted_rand () in
  (* 19/30 > 18/30 *)
  let u = Consensus.Voting.update ~ones:19 ~zeros:11 ~rand in
  Alcotest.(check int) "forced 1" 1 u.Consensus.Voting.b;
  Alcotest.(check bool) "no coin" false u.used_coin;
  Alcotest.(check int) "no randomness drawn" 0 (Sim.Rand.Counter.calls c)

let test_update_forced_zero () =
  let rand, c = counted_rand () in
  (* 14/30 < 15/30 *)
  let u = Consensus.Voting.update ~ones:14 ~zeros:16 ~rand in
  Alcotest.(check int) "forced 0" 0 u.Consensus.Voting.b;
  Alcotest.(check int) "no randomness drawn" 0 (Sim.Rand.Counter.calls c)

let test_update_window_coin () =
  let rand, c = counted_rand () in
  (* exactly half: 15/30 is not < 15/30 and not > 18/30 *)
  let u = Consensus.Voting.update ~ones:15 ~zeros:15 ~rand in
  Alcotest.(check bool) "coin flipped" true u.Consensus.Voting.used_coin;
  Alcotest.(check int) "one random bit" 1 (Sim.Rand.Counter.calls c)

let test_update_boundaries () =
  let rand, _ = counted_rand () in
  (* ones = 18/30 exactly: NOT forced one (strict >) -> window *)
  let u = Consensus.Voting.update ~ones:18 ~zeros:12 ~rand in
  Alcotest.(check bool) "18/30 is window" true u.Consensus.Voting.used_coin;
  (* just above *)
  let u = Consensus.Voting.update ~ones:181 ~zeros:119 ~rand in
  Alcotest.(check int) "181/300 forced 1" 1 u.Consensus.Voting.b;
  Alcotest.(check bool) "no coin" false u.used_coin

let test_update_unanimous () =
  let rand, c = counted_rand () in
  let u1 = Consensus.Voting.update ~ones:30 ~zeros:0 ~rand in
  let u0 = Consensus.Voting.update ~ones:0 ~zeros:30 ~rand in
  Alcotest.(check int) "all ones" 1 u1.Consensus.Voting.b;
  Alcotest.(check int) "all zeros" 0 u0.Consensus.Voting.b;
  Alcotest.(check int) "unanimity never draws" 0 (Sim.Rand.Counter.calls c)

let test_ready () =
  Alcotest.(check bool) "28/30 ready" true
    (Consensus.Voting.ready ~ones:28 ~zeros:2);
  Alcotest.(check bool) "2/30 ready" true
    (Consensus.Voting.ready ~ones:2 ~zeros:28);
  Alcotest.(check bool) "27/30 not ready (strict)" false
    (Consensus.Voting.ready ~ones:27 ~zeros:3);
  Alcotest.(check bool) "3/30 not ready (strict)" false
    (Consensus.Voting.ready ~ones:3 ~zeros:27);
  Alcotest.(check bool) "half not ready" false
    (Consensus.Voting.ready ~ones:15 ~zeros:15);
  Alcotest.(check bool) "empty not ready" false
    (Consensus.Voting.ready ~ones:0 ~zeros:0)

let test_update_deterministic () =
  Alcotest.(check int) "window keeps current" 1
    (Consensus.Voting.update_deterministic ~ones:16 ~zeros:14 ~current:1);
  Alcotest.(check int) "window keeps current 0" 0
    (Consensus.Voting.update_deterministic ~ones:16 ~zeros:14 ~current:0);
  Alcotest.(check int) "forced one" 1
    (Consensus.Voting.update_deterministic ~ones:19 ~zeros:11 ~current:0);
  Alcotest.(check int) "forced zero" 0
    (Consensus.Voting.update_deterministic ~ones:14 ~zeros:16 ~current:1)

let test_update_empty_rejected () =
  let rand, _ = counted_rand () in
  Alcotest.check_raises "no counts rejected"
    (Invalid_argument "Voting.update: no counts") (fun () ->
      ignore (Consensus.Voting.update ~ones:0 ~zeros:0 ~rand))

let qcheck_no_contradiction =
  (* two processes whose counts differ by at most the inoperative drift
     cannot be deterministically forced to opposite values when the drift
     is below the threshold gap (the 18/30 vs 15/30 separation) *)
  QCheck.Test.make ~name:"threshold gap prevents contradiction" ~count:1000
    QCheck.(triple (int_range 0 300) (int_range 0 300) (int_range 0 10))
    (fun (ones, zeros, drift) ->
      let tot = ones + zeros in
      QCheck.assume (tot > 0 && tot >= 10 * drift);
      let rand = Sim.Rand.create ~seed:1L () in
      let u1 = Consensus.Voting.update ~ones ~zeros ~rand in
      (* the other process misses up to [drift] ones *)
      let ones' = max 0 (ones - drift) in
      QCheck.assume (ones' + zeros > 0);
      let u2 = Consensus.Voting.update ~ones:ones' ~zeros ~rand in
      not
        ((not u1.Consensus.Voting.used_coin)
        && (not u2.Consensus.Voting.used_coin)
        && u1.b <> u2.b))

(* --- phase king --- *)

(* Drive phase-king instances directly over a lossless network, with
   list-backed inboxes. *)
let iter inbox f = List.iter (fun (src, m) -> f src m) inbox

let run_phase_king ~n ~t_max ~participating ~inputs =
  let sts =
    Array.init n (fun pid ->
        Consensus.Phase_king.create ~n ~t_max ~pid
          ~participating:(participating pid) ~input:(inputs pid))
  in
  let inboxes = Array.make n [] in
  let rounds = Consensus.Phase_king.rounds ~t_max in
  for r = 1 to rounds do
    let next = Array.make n [] in
    Array.iteri
      (fun pid st ->
        Consensus.Phase_king.step_into st ~local_round:r ~wrap:Fun.id
          ~iter:(iter inboxes.(pid))
          ~emit_all:
            (Sim.Protocol_intf.emit_all_pointwise (fun dst m ->
                 next.(dst) <- (pid, m) :: next.(dst))))
      sts;
    Array.iteri
      (fun i l -> inboxes.(i) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
      next
  done;
  Array.iteri
    (fun pid st ->
      sts.(pid) <-
        Consensus.Phase_king.finalize_into st ~iter:(iter inboxes.(pid)))
    sts;
  Array.map Consensus.Phase_king.decision sts

let test_pk_agreement_mixed () =
  let d =
    run_phase_king ~n:12 ~t_max:2 ~participating:(fun _ -> true)
      ~inputs:(fun pid -> pid mod 2)
  in
  let v = match d.(0) with Some v -> v | None -> Alcotest.fail "no decision" in
  Array.iter
    (fun x -> Alcotest.(check (option int)) "agreement" (Some v) x)
    d

let test_pk_validity () =
  List.iter
    (fun b ->
      let d =
        run_phase_king ~n:9 ~t_max:1 ~participating:(fun _ -> true)
          ~inputs:(fun _ -> b)
      in
      Array.iter
        (fun x -> Alcotest.(check (option int)) "validity" (Some b) x)
        d)
    [ 0; 1 ]

let test_pk_nonparticipants_silent () =
  (* only a subset participates; non-participants must not decide *)
  let d =
    run_phase_king ~n:10 ~t_max:1
      ~participating:(fun pid -> pid >= 5)
      ~inputs:(fun _ -> 1)
  in
  for pid = 0 to 4 do
    Alcotest.(check (option int)) "silent" None d.(pid)
  done;
  for pid = 5 to 9 do
    Alcotest.(check (option int)) "participants decide input" (Some 1) d.(pid)
  done

let test_pk_unanimous_subset () =
  (* a small unanimous participant set decides its value even with large
     t_max (the mixed case of Lemma 11) *)
  let d =
    run_phase_king ~n:20 ~t_max:4
      ~participating:(fun pid -> pid mod 7 = 0)
      ~inputs:(fun _ -> 0)
  in
  Array.iteri
    (fun pid x ->
      if pid mod 7 = 0 then
        Alcotest.(check (option int)) "unanimous subset" (Some 0) x)
    d

let test_pk_rounds_linear () =
  Alcotest.(check int) "t=0" 4 (Consensus.Phase_king.rounds ~t_max:0);
  Alcotest.(check int) "t=3" 28 (Consensus.Phase_king.rounds ~t_max:3)

let suite =
  [
    Alcotest.test_case "update forced one" `Quick test_update_forced_one;
    Alcotest.test_case "update forced zero" `Quick test_update_forced_zero;
    Alcotest.test_case "update window coin" `Quick test_update_window_coin;
    Alcotest.test_case "update boundaries" `Quick test_update_boundaries;
    Alcotest.test_case "update unanimity" `Quick test_update_unanimous;
    Alcotest.test_case "ready thresholds" `Quick test_ready;
    Alcotest.test_case "deterministic update" `Quick test_update_deterministic;
    Alcotest.test_case "empty counts rejected" `Quick test_update_empty_rejected;
    QCheck_alcotest.to_alcotest qcheck_no_contradiction;
    Alcotest.test_case "phase-king agreement" `Quick test_pk_agreement_mixed;
    Alcotest.test_case "phase-king validity" `Quick test_pk_validity;
    Alcotest.test_case "phase-king non-participants" `Quick
      test_pk_nonparticipants_silent;
    Alcotest.test_case "phase-king unanimous subset" `Quick
      test_pk_unanimous_subset;
    Alcotest.test_case "phase-king round count" `Quick test_pk_rounds_linear;
  ]
