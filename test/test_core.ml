(* Component-level tests of the Algorithm 1 voting core (Consensus.Core):
   driving the epochs directly over a controllable network to check the
   paper's building-block lemmas on real executions:
   - Lemma 1: every operative process contributes to every other operative
     process's group counts;
   - Lemmas 6/8: every operative process learns every group's counts during
     spreading;
   - the quorum rules that turn under-connected processes inoperative. *)

module Core = Consensus.Core

(* A list-backed inbox iterator, for driving the core without an engine. *)
let iter inbox f = List.iter (fun (src, m) -> f src m) inbox

(* Run the full core schedule (epochs + Bcast) over a network where
   [omit ~slot ~src ~dst] drops messages. Returns the states after
   finalize. *)
let drive ?(omit = fun ~slot:_ ~src:_ ~dst:_ -> false) ~m ~inputs () =
  let members = Array.init m (fun i -> i) in
  let sh =
    Core.make_shared ~members ~seed:42 ~params:Consensus.Params.default
      ~t_max:(max 1 (m / 31)) ()
  in
  let sts = Array.init m (fun pid -> Core.create sh ~pid ~input:(inputs pid)) in
  let inboxes = Array.make m [] in
  let rand = Sim.Rand.create ~seed:5L () in
  for slot = 1 to Core.rounds sh do
    let next = Array.make m [] in
    Array.iteri
      (fun pid st ->
        let out = ref [] in
        let emit dst m = out := (dst, m) :: !out in
        Core.step_into st ~slot ~iter:(iter inboxes.(pid)) ~rand ~emit
          ~emit_all:(Sim.Protocol_intf.emit_all_pointwise emit);
        List.iter
          (fun (dst, msg) ->
            if not (omit ~slot ~src:pid ~dst) then
              next.(dst) <- (pid, msg) :: next.(dst))
          (List.rev !out))
      sts;
    Array.iteri
      (fun i l -> inboxes.(i) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
      next
  done;
  Array.iteri
    (fun pid st -> Core.finalize_into st ~iter:(iter inboxes.(pid)))
    sts;
  (sh, sts)

let test_clean_run_decides () =
  let m = 36 in
  let _, sts = drive ~m ~inputs:(fun i -> i mod 2) () in
  Array.iter
    (fun st ->
      Alcotest.(check bool) "operative" true (Core.operative st);
      Alcotest.(check bool) "decided flag armed" true (Core.decided_flag st))
    sts;
  (* all line-16 decisions agree *)
  let d0 = Core.line16_decision sts.(0) in
  Alcotest.(check bool) "decision exists" true (d0 <> None);
  Array.iter
    (fun st ->
      Alcotest.(check (option int)) "same decision" d0 (Core.line16_decision st))
    sts

let test_unanimous_validity () =
  List.iter
    (fun b ->
      let m = 25 in
      let _, sts = drive ~m ~inputs:(fun _ -> b) () in
      Array.iter
        (fun st ->
          Alcotest.(check (option int)) "validity" (Some b)
            (Core.line16_decision st))
        sts)
    [ 0; 1 ]

let test_lemma1_contribution () =
  (* clean network, minority of ones: operative counts must be exact, i.e.
     every process's bit is counted by every other — observable through the
     deterministic all-set-0 outcome when ones < 15/30 *)
  let m = 49 in
  let ones = 16 in
  (* 16/49 < 1/2 *)
  let _, sts = drive ~m ~inputs:(fun i -> if i < ones then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "exact counting forces 0" 0 (Core.candidate st))
    sts

let test_lemma1_exact_majority () =
  (* > 18/30 of ones forces 1 everywhere: again needs exact counting *)
  let m = 49 in
  let ones = 31 in
  (* 31/49 > 0.6 *)
  let _, sts = drive ~m ~inputs:(fun i -> if i < ones then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "exact counting forces 1" 1 (Core.candidate st))
    sts

let test_quorum_kill_one_group () =
  (* silence all intra-group traffic of more than half of group 0: the
     whole group must become inoperative, everyone else must stay
     operative and still decide *)
  let m = 49 in
  let members = Array.init m (fun i -> i) in
  let part = Groups.sqrt_partition members in
  let g0 = Groups.group part 0 in
  let g0_size = Array.length g0 in
  let silenced = Array.to_list (Array.sub g0 0 ((g0_size / 2) + 1)) in
  let in_g0 pid = Array.exists (fun q -> q = pid) g0 in
  let omit ~slot:_ ~src ~dst =
    (List.mem src silenced && in_g0 dst) || (List.mem dst silenced && in_g0 src)
  in
  let _, sts = drive ~omit ~m ~inputs:(fun i -> i mod 2) () in
  Array.iteri
    (fun pid st ->
      if in_g0 pid then
        Alcotest.(check bool)
          (Printf.sprintf "group-0 member %d inoperative" pid)
          false (Core.operative st)
      else
        Alcotest.(check bool)
          (Printf.sprintf "outsider %d operative" pid)
          true (Core.operative st))
    sts;
  (* outsiders still reach a common decision *)
  let d =
    Array.to_list sts
    |> List.filteri (fun pid _ -> not (in_g0 pid))
    |> List.map Core.line16_decision
  in
  match d with
  | first :: rest ->
      Alcotest.(check bool) "outsiders decided" true (first <> None);
      List.iter
        (fun x -> Alcotest.(check (option int)) "outsiders agree" first x)
        rest
  | [] -> assert false

let test_spreading_completeness () =
  (* Lemma 8 flavor: with nobody silenced, the biased-majority outcome
     reflects *global* counts, which requires every group's counts to reach
     every process — checked by an input layout where one group is all-ones
     but the global fraction is below half: if a process only saw its own
     group it would choose 1, globally it must choose 0 *)
  let m = 49 in
  let members = Array.init m (fun i -> i) in
  let part = Groups.sqrt_partition members in
  let g0 = Groups.group part 0 in
  let in_g0 pid = Array.exists (fun q -> q = pid) g0 in
  (* group 0 all ones; everyone else zero: global ones = |g0| = 7/49 < 1/2 *)
  let _, sts = drive ~m ~inputs:(fun i -> if in_g0 i then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "global counts dominate" 0 (Core.candidate st))
    sts

let test_inoperative_idles () =
  (* a process whose entire neighborhood omits its traffic must become
     inoperative but still pick up the final decision broadcast *)
  let m = 49 in
  let victim = 11 in
  let omit ~slot:_ ~src ~dst =
    (* cut everything except the Bcast-slot decision traffic; the Bcast slot
       is the last one, identifiable by leaving Final messages through —
       here we simply cut only the victim's incoming/outgoing *non-final*
       slots: approximate by slot number below the last *)
    src = victim || dst = victim
  in
  (* cut all but the last slot *)
  let members = Array.init m (fun i -> i) in
  let sh =
    Core.make_shared ~members ~seed:42 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let last = Core.rounds sh in
  let omit ~slot ~src ~dst = slot < last && omit ~slot ~src ~dst in
  let _, sts = drive ~omit ~m ~inputs:(fun i -> i mod 2) () in
  Alcotest.(check bool) "victim inoperative" false (Core.operative sts.(victim));
  Alcotest.(check bool) "victim got the decision" true
    (Core.got_decision sts.(victim));
  Alcotest.(check bool) "victim decides at line 16" true
    (Core.line16_decision sts.(victim) <> None)

let test_singleton_core () =
  let _, sts = drive ~m:1 ~inputs:(fun _ -> 1) () in
  Alcotest.(check (option int)) "singleton decides own input" (Some 1)
    (Core.line16_decision sts.(0))

let test_two_member_core () =
  let _, sts = drive ~m:2 ~inputs:(fun _ -> 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check (option int)) "pair decides" (Some 0)
        (Core.line16_decision st))
    sts

let test_set_candidate () =
  let members = [| 0; 1; 2; 3 |] in
  let sh =
    Core.make_shared ~members ~seed:1 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let st = Core.create sh ~pid:0 ~input:0 in
  Core.set_candidate st 1;
  Alcotest.(check int) "candidate overridden" 1 (Core.candidate st);
  Alcotest.check_raises "non-bit rejected"
    (Invalid_argument "Core.set_candidate: bit expected") (fun () ->
      Core.set_candidate st 2)

let test_msg_bits () =
  let members = Array.init 16 (fun i -> i) in
  let sh =
    Core.make_shared ~members ~seed:1 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let c = { Core.ones = 3; zeros = 2 } in
  List.iter
    (fun m ->
      Alcotest.(check bool) "positive bits" true (Core.msg_bits sh m > 0))
    [
      Core.Counts { stage = 1; bag = 0; c };
      Core.Confirm { stage = 1 };
      Core.Result { stage = 1; left = Some c; right = None };
      Core.Spread_delta [ (0, c); (1, c) ];
      Core.Final 1;
    ];
  (* spreading deltas are charged per entry *)
  Alcotest.(check bool) "delta grows with entries" true
    (Core.msg_bits sh (Core.Spread_delta [ (0, c); (1, c) ])
    > Core.msg_bits sh (Core.Spread_delta [ (0, c) ]));
  Alcotest.(check (option int)) "final hint" (Some 1)
    (Core.msg_hint (Core.Final 1));
  Alcotest.(check (option int)) "counts carry no hint" None
    (Core.msg_hint (Core.Counts { stage = 1; bag = 0; c }))

let suite =
  [
    Alcotest.test_case "clean run decides" `Quick test_clean_run_decides;
    Alcotest.test_case "unanimous validity" `Quick test_unanimous_validity;
    Alcotest.test_case "Lemma 1: exact minority counting" `Quick
      test_lemma1_contribution;
    Alcotest.test_case "Lemma 1: exact majority counting" `Quick
      test_lemma1_exact_majority;
    Alcotest.test_case "quorum kills an isolated group" `Quick
      test_quorum_kill_one_group;
    Alcotest.test_case "Lemma 8: spreading completeness" `Quick
      test_spreading_completeness;
    Alcotest.test_case "inoperative process still decides" `Quick
      test_inoperative_idles;
    Alcotest.test_case "singleton core" `Quick test_singleton_core;
    Alcotest.test_case "two-member core" `Quick test_two_member_core;
    Alcotest.test_case "set_candidate" `Quick test_set_candidate;
    Alcotest.test_case "message bits" `Quick test_msg_bits;
  ]
