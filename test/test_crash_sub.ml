(* Tests for the Appendix B.3 crash-model subquadratic variant. *)

let run ?(n = 64) ?t ?(seed = 1) ?(adversary = Sim.Adversary_intf.none) inputs =
  let t = match t with Some t -> t | None -> max 1 (n / 31) in
  let cfg0 = Sim.Config.make ~n ~t_max:t ~seed () in
  let max_rounds = Consensus.Crash_subquadratic.rounds_needed cfg0 + 10 in
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds () in
  Sim.Engine.run (Consensus.Crash_subquadratic.protocol_buffered cfg) cfg ~adversary
    ~inputs

let check ~what ~inputs o =
  Alcotest.(check bool) (what ^ ": all decided") true
    (Sim.Engine.all_nonfaulty_decided o);
  match Sim.Engine.agreed_decision o with
  | None -> Alcotest.fail (what ^ ": agreement violated")
  | Some v ->
      Alcotest.(check bool) (what ^ ": weak validity") true
        (Array.exists (fun b -> b = v) inputs);
      v

let mixed n = Array.init n (fun i -> i mod 2)

let test_basic () =
  let inputs = mixed 64 in
  let o = run inputs in
  ignore (check ~what:"crash-sub" ~inputs o)

let test_validity () =
  List.iter
    (fun b ->
      let inputs = Array.make 48 b in
      let o = run ~n:48 inputs in
      Alcotest.(check int) "validity" b (check ~what:"crash-sub" ~inputs o);
      Alcotest.(check int) "unanimity uses no coins" 0 o.rand_calls)
    [ 0; 1 ]

let test_crash_adversaries () =
  List.iter
    (fun adversary ->
      List.iter
        (fun seed ->
          let inputs = mixed 60 in
          let o = run ~n:60 ~seed ~adversary inputs in
          ignore
            (check
               ~what:("crash-sub vs " ^ adversary.Sim.Adversary_intf.name)
               ~inputs o))
        [ 1; 2 ])
    [
      Adversary.crash_schedule [ (1, [ 0 ]); (4, [ 1 ]) ];
      Adversary.staggered_crash ~per_round:1;
      Adversary.vote_splitter ();
    ]

let test_dissemination_cheaper () =
  (* the whole point: the post-voting dissemination is far below the n^2
     broadcast Algorithm 1 pays *)
  let n = 144 in
  let t = max 1 (n / 31) in
  let sh =
    Consensus.Core.make_shared ~lo:0 ~m:n ~seed:1
      ~params:Consensus.Params.default ~t_max:t ()
  in
  let v = Consensus.Core.rounds sh in
  let dissem proto_of =
    let trace, summary = Trace.Metrics.collector ~clock:(fun () -> 0.) () in
    let cfg0 = Sim.Config.make ~n ~t_max:t ~seed:1 () in
    let cfg = { cfg0 with Sim.Config.max_rounds = 20000 } in
    let o =
      Sim.Engine.run ~trace (proto_of cfg) cfg
        ~adversary:(Adversary.staggered_crash ~per_round:1)
        ~inputs:(mixed n)
    in
    Alcotest.(check bool) "decided" true (Sim.Engine.agreed_decision o <> None);
    List.fold_left
      (fun a (r : Trace.Metrics.per_round) ->
        if r.round >= v then a + r.bits else a)
      0 (summary ()).per_round
  in
  let om = dissem (fun cfg -> Consensus.Optimal_omissions.protocol_buffered cfg) in
  let cr = dissem (fun cfg -> Consensus.Crash_subquadratic.protocol_buffered cfg) in
  Alcotest.(check bool)
    (Printf.sprintf "dissemination %d < %d / 2" cr om)
    true
    (2 * cr < om)

let test_straggler_rescue () =
  (* cut one process off from the whole voting phase: it must still decide
     through the help protocol. We use the engine's omission mechanism via
     a corrupted neighborhood — simplest: crash the victim itself is not
     allowed (faulty processes need no guarantees), so instead corrupt a
     handful of its expander neighbors early and verify termination. *)
  let inputs = mixed 64 in
  let adversary = Adversary.eclipse ~victim:3 in
  let o = run ~adversary inputs in
  ignore (check ~what:"straggler" ~inputs o)

let test_determinism () =
  let inputs = mixed 48 in
  let o1 = run ~n:48 ~seed:5 inputs and o2 = run ~n:48 ~seed:5 inputs in
  Alcotest.(check (array (option int))) "same decisions" o1.decisions
    o2.decisions;
  Alcotest.(check int) "same bits" o1.bits_sent o2.bits_sent

let suite =
  [
    Alcotest.test_case "basic consensus" `Quick test_basic;
    Alcotest.test_case "validity" `Quick test_validity;
    Alcotest.test_case "crash adversaries" `Quick test_crash_adversaries;
    Alcotest.test_case "dissemination subquadratic" `Quick
      test_dissemination_cheaper;
    Alcotest.test_case "straggler rescue" `Quick test_straggler_rescue;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
