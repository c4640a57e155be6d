(* Tests for the operative-partition broadcast (the Section 6 extension). *)

let run ?(n = 64) ?(t = 2) ?(seed = 1) ?(source = 0)
    ?(adversary = Sim.Adversary_intf.none) input =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:200 () in
  let proto = Consensus.Operative_broadcast.protocol_buffered ~source cfg in
  let inputs = Array.init n (fun i -> if i = source then input else 0) in
  Sim.Engine.run proto cfg ~adversary ~inputs

let test_delivery () =
  List.iter
    (fun input ->
      let o = run input in
      Array.iteri
        (fun pid d ->
          if not o.Sim.Engine.faulty.(pid) then
            Alcotest.(check (option int))
              (Printf.sprintf "pid %d delivers" pid)
              (Some input) d)
        o.decisions)
    [ 0; 1 ]

let test_nonzero_source () =
  let o = run ~source:17 1 in
  Alcotest.(check (option int)) "delivered from source 17" (Some 1)
    (Sim.Engine.agreed_decision o)

let test_under_adversaries () =
  List.iter
    (fun adversary ->
      (* source 5 may itself be corrupted by some strategies; we only
         require that *non-faulty* processes agree among themselves *)
      let o = run ~n:100 ~t:3 ~source:5 ~adversary 1 in
      Alcotest.(check bool)
        ("agreement under " ^ adversary.Sim.Adversary_intf.name)
        true
        (Sim.Engine.agreed_decision o <> None))
    [
      Adversary.none;
      Adversary.random_omission ~p_omit:0.8;
      Adversary.staggered_crash ~per_round:1;
      Adversary.group_killer ();
    ]

let test_log_rounds () =
  let o = run ~n:256 1 in
  (* 2 log2 n gossip rounds + 1 decision round *)
  Alcotest.(check (option int)) "O(log n) rounds" (Some 17) o.decided_round

let test_subquadratic_bits () =
  let o = run ~n:256 1 in
  Alcotest.(check bool) "bits well below n^2 (t+1) flooding" true
    (o.bits_sent < 256 * 256 * 5)

let test_crashed_source_default () =
  (* crash the source before it speaks: everyone times out to the default *)
  let adversary = Adversary.crash_schedule [ (1, [ 0 ]) ] in
  let o = run ~adversary 1 in
  Array.iteri
    (fun pid d ->
      if not o.Sim.Engine.faulty.(pid) then
        Alcotest.(check (option int)) "default on silent source" (Some 0) d)
    o.decisions

let suite =
  [
    Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "non-zero source" `Quick test_nonzero_source;
    Alcotest.test_case "under adversaries" `Quick test_under_adversaries;
    Alcotest.test_case "O(log n) rounds" `Quick test_log_rounds;
    Alcotest.test_case "subquadratic bits" `Quick test_subquadratic_bits;
    Alcotest.test_case "crashed source defaults" `Quick
      test_crashed_source_default;
  ]
