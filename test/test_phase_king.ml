(* Unit tests for the baseline deterministic protocols through the harness
   registry: adversary-free and crash-schedule runs with exact decision and
   round-count assertions. Phase-king had no standalone suite before; the
   dolev-strong and early-stopping round counts close coverage gaps in
   test_auth/test_baselines, which only assert agreement. *)

let run_entry id ~n ~t ~inputs ~strategy =
  let entry =
    match Harness.Registry.find id with
    | Ok e -> e
    | Error msg -> Alcotest.failf "%s" msg
  in
  let strategy = Adversary.Strategy.of_string strategy in
  let inputs = Array.of_list inputs in
  let s = Harness.Scenario.make ~n ~t_max:t ~seed:1 ~inputs ~strategy in
  let res = Conformance.Runner.run_entry entry s in
  List.iter
    (fun v -> Alcotest.failf "%a" Conformance.Runner.pp_violation v)
    res.Conformance.Runner.violations;
  match res.outcome with
  | Some o -> o
  | None -> Alcotest.failf "%s produced no outcome" id

let decided (o : Sim.Engine.outcome) =
  match o.decided_round with Some r -> r | None -> -1

let agreed (o : Sim.Engine.outcome) =
  match Sim.Engine.agreed_decision o with
  | Some v -> v
  | None -> Alcotest.fail "no agreement"

(* --- phase-king --- *)

let pk_rounds t = (2 * ((4 * t) + 2)) + 1

let test_pk_rounds_needed () =
  let cfg = Sim.Config.make ~n:7 ~t_max:1 ~seed:1 () in
  Alcotest.(check int) "t=1 schedule" (pk_rounds 1)
    (Consensus.Phase_king.rounds_needed cfg);
  let cfg = Sim.Config.make ~n:13 ~t_max:2 ~seed:1 () in
  Alcotest.(check int) "t=2 schedule" (pk_rounds 2)
    (Consensus.Phase_king.rounds_needed cfg)

let test_pk_fault_free () =
  let o =
    run_entry "phase-king" ~n:7 ~t:1 ~inputs:[ 0; 1; 0; 1; 0; 1; 1 ]
      ~strategy:"idle"
  in
  (* majority of inputs is 1 and no one is strong against it forever;
     decision lands exactly at the finalize round *)
  Alcotest.(check int) "decides at finalize round" (pk_rounds 1) (decided o);
  Alcotest.(check int) "decision" 1 (agreed o);
  Alcotest.(check int) "no faults" 0 o.faults_used

let test_pk_validity_unanimous () =
  List.iter
    (fun b ->
      let o =
        run_entry "phase-king" ~n:7 ~t:1 ~inputs:(List.init 7 (fun _ -> b))
          ~strategy:"again(strike(rnd1,p75))"
      in
      Alcotest.(check int)
        (Printf.sprintf "unanimous %d kept" b)
        b (agreed o))
    [ 0; 1 ]

let test_pk_crash_schedule () =
  let o =
    run_entry "phase-king" ~n:13 ~t:2
      ~inputs:[ 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 1 ]
      ~strategy:"strike(p0.1,out)"
  in
  Alcotest.(check int) "decides at finalize round" (pk_rounds 2) (decided o);
  Alcotest.(check int) "two faults" 2 o.faults_used;
  (* 11 live votes, 5 zeros vs 6 ones *)
  Alcotest.(check int) "decision follows live majority" 1 (agreed o)

let test_pk_survives_vote_splitter () =
  (* the splitter that breaks a weakened strong-threshold (see the harness
     acceptance experiment) must NOT break the real protocol *)
  let o =
    run_entry "phase-king" ~n:13 ~t:2
      ~inputs:[ 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 1 ]
      ~strategy:"strike(hold0x2,to1)"
  in
  Alcotest.(check int) "decides at finalize round" (pk_rounds 2) (decided o);
  ignore (agreed o)

(* Driving a lone participant directly: a list-backed inbox iterator, and
   an [emit_all] that drops its broadcasts. *)
let iter inbox f = List.iter (fun (src, m) -> f src m) inbox
let ignore_all ~lo:_ ~hi:_ ~skip:_ ~desc:_ _ = ()

(* A lone participant (pid 3 of 7, t = 1, input 1) run through every
   local round on [inbox lr], then finalized on an empty inbox. *)
let lone_participant inbox =
  let t_max = 1 in
  let pk =
    Consensus.Phase_king.create ~n:7 ~t_max ~pid:3 ~participating:true
      ~input:1
  in
  for lr = 1 to Consensus.Phase_king.rounds ~t_max do
    Consensus.Phase_king.step_into pk ~local_round:lr ~iter:(iter (inbox lr))
      ~wrap:Fun.id ~emit_all:ignore_all
  done;
  Consensus.Phase_king.finalize_into pk ~iter:(iter [])

let test_pk_undecided_residue () =
  (* a participant that hears nothing across the whole fallback run ends
     with [decision = None] instead of echoing its own input — the tail's
     residue round resolves it (Algorithm 1 lines 18-19) *)
  let fin = lone_participant (fun _ -> []) in
  Alcotest.(check bool) "never heard" false (Consensus.Phase_king.heard fin);
  Alcotest.(check (option int))
    "undecided residue" None
    (Consensus.Phase_king.decision fin);
  Alcotest.(check int) "working value preserved" 1
    (Consensus.Phase_king.value fin)

let test_pk_decided_not_heard () =
  (* line-18 [Decided] broadcasts and a caller's own messages ([Other])
     share the inbox with the phase-king run but are not part of it: they
     must not count as heard, or the residue would change *)
  let fin =
    lone_participant (fun _ ->
        [
          (0, Consensus.Phase_king.Decided 0); (1, Consensus.Phase_king.Other);
        ])
  in
  Alcotest.(check bool) "never heard" false (Consensus.Phase_king.heard fin);
  Alcotest.(check (option int))
    "undecided residue" None
    (Consensus.Phase_king.decision fin);
  Alcotest.(check int) "working value preserved" 1
    (Consensus.Phase_king.value fin)

let test_pk_heard_decides () =
  (* a single received fallback message is enough to clear the residue *)
  let fin =
    lone_participant (fun lr ->
        if lr = 2 then [ (0, Consensus.Phase_king.Value 0) ] else [])
  in
  Alcotest.(check bool) "heard" true (Consensus.Phase_king.heard fin);
  Alcotest.(check bool) "decided" true
    (Consensus.Phase_king.decision fin <> None)

(* --- dolev-strong --- *)

let test_ds_fault_free () =
  let o =
    run_entry "dolev-strong" ~n:6 ~t:2 ~inputs:[ 1; 0; 1; 0; 1; 1 ]
      ~strategy:"idle"
  in
  Alcotest.(check int) "decides after t+1 relay rounds" 3 (decided o);
  Alcotest.(check int) "decision" 1 (agreed o)

let test_ds_crash_schedule () =
  let o =
    run_entry "dolev-strong" ~n:8 ~t:2 ~inputs:[ 1; 1; 0; 0; 1; 0; 1; 1 ]
      ~strategy:"strike(p0.2,out)"
  in
  (* a silenced sender is only distinguishable one relay round later, so
     the common decision slips from t+1 to t+2 *)
  Alcotest.(check int) "crashes delay decision one round" 4 (decided o);
  Alcotest.(check int) "two faults" 2 o.faults_used;
  ignore (agreed o)

(* --- early-stopping --- *)

let test_es_fault_free () =
  let o =
    run_entry "early-stopping" ~n:9 ~t:2 ~inputs:[ 0; 1; 1; 0; 1; 1; 0; 1; 1 ]
      ~strategy:"idle"
  in
  (* the engine delivers round-r messages into round r+1, so the first
     comparable heard-from set exists at round 3: a fault-free run is one
     clean round after that first comparison *)
  Alcotest.(check int) "stops early with no faults" 3 (decided o);
  Alcotest.(check int) "decides the minimum input" 0 (agreed o)

let test_es_crash_schedule () =
  let o =
    run_entry "early-stopping" ~n:9 ~t:2 ~inputs:[ 0; 1; 1; 0; 1; 1; 0; 1; 1 ]
      ~strategy:"from(2,strike(p1,out))"
  in
  (* a crash at round 2 shrinks the heard-from set at round 3 (dirty), so
     the first clean round — and the decision — shifts to round 4; a crash
     at round 1 would be invisible (the victim never enters any heard set) *)
  Alcotest.(check int) "f=1 adds one round" 4 (decided o);
  Alcotest.(check int) "one fault" 1 o.faults_used;
  ignore (agreed o)

let suite =
  [
    Alcotest.test_case "phase-king schedule length" `Quick
      test_pk_rounds_needed;
    Alcotest.test_case "phase-king fault-free" `Quick test_pk_fault_free;
    Alcotest.test_case "phase-king unanimous validity" `Quick
      test_pk_validity_unanimous;
    Alcotest.test_case "phase-king crash schedule" `Quick
      test_pk_crash_schedule;
    Alcotest.test_case "phase-king survives vote splitter" `Quick
      test_pk_survives_vote_splitter;
    Alcotest.test_case "phase-king undecided residue" `Quick
      test_pk_undecided_residue;
    Alcotest.test_case "phase-king ignores Decided and Other" `Quick
      test_pk_decided_not_heard;
    Alcotest.test_case "phase-king heard clears residue" `Quick
      test_pk_heard_decides;
    Alcotest.test_case "dolev-strong fault-free rounds" `Quick
      test_ds_fault_free;
    Alcotest.test_case "dolev-strong crash schedule" `Quick
      test_ds_crash_schedule;
    Alcotest.test_case "early-stopping fault-free rounds" `Quick
      test_es_fault_free;
    Alcotest.test_case "early-stopping crash schedule" `Quick
      test_es_crash_schedule;
  ]
