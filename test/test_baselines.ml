(* Tests for the baseline protocols: BJBO biased-majority (crash model) and
   flooding min-consensus (crash model). *)

let run_proto proto_of ?(n = 48) ?t ?(seed = 1) ?(max_rounds = 2000)
    ?(adversary = Sim.Adversary_intf.none) inputs =
  let t = match t with Some t -> t | None -> max 1 (n / 8) in
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds () in
  Sim.Engine.run (proto_of cfg) cfg ~adversary ~inputs

let run_bjbo = run_proto (fun cfg -> Consensus.Bjbo.protocol_buffered cfg)
let run_flood = run_proto (fun cfg -> Consensus.Flood.protocol_buffered cfg)

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

(* --- BJBO --- *)

let test_bjbo_unanimous () =
  List.iter
    (fun b ->
      let inputs = Array.make 48 b in
      let o = run_bjbo inputs in
      Alcotest.(check int) "validity" b (check ~what:"bjbo" ~inputs o);
      Alcotest.(check (option int)) "fast decision" (Some 2) o.decided_round;
      Alcotest.(check int) "no randomness" 0 o.rand_calls)
    [ 0; 1 ]

let test_bjbo_mixed_no_adversary () =
  List.iter
    (fun seed ->
      let inputs = mixed 48 in
      let o = run_bjbo ~seed inputs in
      ignore (check ~what:"bjbo mixed" ~inputs o))
    [ 1; 2; 3; 4; 5 ]

let test_bjbo_crash_adversaries () =
  List.iter
    (fun adversary ->
      List.iter
        (fun seed ->
          let inputs = mixed 48 in
          let o = run_bjbo ~seed ~adversary inputs in
          ignore
            (check
               ~what:("bjbo vs " ^ adversary.Sim.Adversary_intf.name)
               ~inputs o))
        [ 1; 2 ])
    [
      Adversary.crash_schedule [ (1, [ 0; 1 ]); (2, [ 2 ]) ];
      Adversary.staggered_crash ~per_round:2;
      Adversary.vote_splitter ();
    ]

let test_bjbo_splitter_stalls () =
  (* the vote splitter must actually slow the run down relative to the
     adversary-free baseline *)
  let inputs = mixed 64 in
  let free = run_bjbo ~n:64 ~t:8 inputs in
  let stalled =
    run_bjbo ~n:64 ~t:8 ~adversary:(Adversary.vote_splitter ()) inputs
  in
  let r o =
    match o.Sim.Engine.decided_round with Some r -> r | None -> max_int
  in
  ignore (check ~what:"stalled still decides" ~inputs stalled);
  Alcotest.(check bool)
    (Printf.sprintf "stalled %d >= free %d" (r stalled) (r free))
    true
    (r stalled >= r free)

let test_bjbo_coin_starved () =
  (* with coin_set_size = k only pids < k may flip *)
  List.iter
    (fun k ->
      let n = 48 in
      let cfg = Sim.Config.make ~n ~t_max:4 ~seed:2 ~max_rounds:2000 () in
      let proto = Consensus.Bjbo.protocol_buffered ~coin_set_size:k cfg in
      let inputs = mixed n in
      let o =
        Sim.Engine.run proto cfg ~adversary:(Adversary.vote_splitter ())
          ~inputs
      in
      ignore (check ~what:(Printf.sprintf "k=%d" k) ~inputs o);
      Alcotest.(check bool)
        (Printf.sprintf "rand calls %d bounded by k*T" o.rand_calls)
        true
        (o.rand_calls <= k * o.rounds_total))
    [ 0; 1; 4; 48 ]

(* --- flooding --- *)

let test_flood_no_adversary () =
  let inputs = mixed 48 in
  let o = run_flood inputs in
  Alcotest.(check int) "min decided" 0 (check ~what:"flood" ~inputs o)

let test_flood_all_ones () =
  let inputs = Array.make 48 1 in
  let o = run_flood inputs in
  Alcotest.(check int) "validity 1" 1 (check ~what:"flood" ~inputs o)

let test_flood_single_zero_crashed_late () =
  (* the classic t+1-round necessity scenario: the only 0-holder is crashed
     mid-broadcast; agreement must still hold (on either value) *)
  let n = 16 in
  let inputs = Array.init n (fun i -> if i = 0 then 0 else 1) in
  let adversary =
    {
      Sim.Adversary_intf.name = "partial-crash";
      create =
        (fun _ _ view ->
          if view.Sim.View.round = 1 then
            (* pid 0 delivers its 0 only to pid 1, then dies *)
            Sim.View.pointwise ~new_faults:[ 0 ]
              ~omit:(fun src dst -> src = 0 && dst <> 1)
          else
            Sim.View.pointwise ~new_faults:[] ~omit:(fun src _ -> src = 0));
    }
  in
  let o = run_flood ~n ~t:3 ~adversary inputs in
  ignore (check ~what:"flood chain" ~inputs o)

let test_flood_round_complexity () =
  let n = 32 in
  List.iter
    (fun t ->
      let inputs = mixed n in
      let o = run_flood ~n ~t inputs in
      Alcotest.(check (option int))
        (Printf.sprintf "decides at t+2 = %d" (t + 2))
        (Some (t + 2)) o.Sim.Engine.decided_round)
    [ 1; 3; 7 ]

let test_flood_message_bound () =
  (* each process broadcasts each value at most once: <= 2 n^2 messages *)
  let n = 32 in
  let o = run_flood ~n ~t:5 (mixed n) in
  Alcotest.(check bool) "message bound" true
    (o.messages_sent <= 2 * n * n)

let test_flood_quadratic_floor () =
  (* the Omega(t^2) message lower bound of [1] is respected by the
     baseline: with mixed inputs it floods ~2 n (n-1) messages *)
  let n = 32 in
  let t = n / 4 in
  let o = run_flood ~n ~t (mixed n) in
  Alcotest.(check bool) "messages >= t^2" true (o.messages_sent >= t * t)

let suite =
  [
    Alcotest.test_case "bjbo unanimity" `Quick test_bjbo_unanimous;
    Alcotest.test_case "bjbo mixed" `Quick test_bjbo_mixed_no_adversary;
    Alcotest.test_case "bjbo crash adversaries" `Quick
      test_bjbo_crash_adversaries;
    Alcotest.test_case "bjbo splitter stalls" `Quick test_bjbo_splitter_stalls;
    Alcotest.test_case "bjbo coin starvation" `Quick test_bjbo_coin_starved;
    Alcotest.test_case "flood basic" `Quick test_flood_no_adversary;
    Alcotest.test_case "flood validity" `Quick test_flood_all_ones;
    Alcotest.test_case "flood late chain" `Quick
      test_flood_single_zero_crashed_late;
    Alcotest.test_case "flood round complexity" `Quick
      test_flood_round_complexity;
    Alcotest.test_case "flood message bound" `Quick test_flood_message_bound;
    Alcotest.test_case "flood quadratic floor" `Quick
      test_flood_quadratic_floor;
  ]

(* --- early stopping --- *)

let run_es = run_proto (fun cfg -> Consensus.Early_stopping.protocol_buffered cfg)

let test_es_no_faults_fast () =
  let inputs = mixed 48 in
  let o = run_es ~t:10 inputs in
  Alcotest.(check int) "decides min" 0 (check ~what:"es" ~inputs o);
  (* f = 0: decision at the first clean round, independent of t *)
  Alcotest.(check (option int)) "fast decision" (Some 3) o.decided_round

let test_es_early_stopping_rounds () =
  (* f actual crashes => ~f+3 rounds, well below the t+2 worst case *)
  let n = 48 and t = 12 in
  List.iter
    (fun f ->
      let schedule = List.init f (fun i -> (i + 1, [ i ])) in
      let inputs = mixed n in
      let o = run_es ~n ~t ~adversary:(Adversary.crash_schedule schedule) inputs in
      ignore (check ~what:"es rounds" ~inputs o);
      let r = match o.decided_round with Some r -> r | None -> max_int in
      Alcotest.(check bool)
        (Printf.sprintf "f=%d decides at %d <= f+4 = %d" f r (f + 4))
        true
        (r <= f + 4))
    [ 0; 1; 3; 6 ]

let test_es_validity () =
  List.iter
    (fun b ->
      let inputs = Array.make 32 b in
      let o = run_es ~n:32 inputs in
      Alcotest.(check int) "validity" b (check ~what:"es" ~inputs o))
    [ 0; 1 ]

let test_es_crash_grid () =
  List.iter
    (fun adversary ->
      List.iter
        (fun seed ->
          let inputs = mixed 40 in
          let o = run_es ~n:40 ~t:10 ~seed ~adversary inputs in
          ignore
            (check
               ~what:("es vs " ^ adversary.Sim.Adversary_intf.name)
               ~inputs o))
        [ 1; 2; 3 ])
    [
      Adversary.staggered_crash ~per_round:1;
      Adversary.staggered_crash ~per_round:3;
      Adversary.vote_splitter ();
      Adversary.crash_schedule [ (1, [ 0; 1 ]); (2, [ 2 ]); (3, [ 3; 4 ]) ];
    ]

let test_es_mid_round_crash_chain () =
  (* the minimum travels through a crashing chain: deciders must not
     outrun it (the clean-round argument) *)
  let n = 16 in
  let inputs = Array.init n (fun i -> if i = 0 then 0 else 1) in
  let adversary =
    {
      Sim.Adversary_intf.name = "chain";
      create =
        (fun _ _ view ->
          match view.Sim.View.round with
          | 1 ->
              Sim.View.pointwise ~new_faults:[ 0 ]
                ~omit:(fun src dst -> src = 0 && dst <> 1)
          | 2 ->
              Sim.View.pointwise ~new_faults:[ 1 ]
                ~omit:(fun src dst -> src <= 1 && not (src = 1 && dst = 2))
          | _ ->
              Sim.View.pointwise ~new_faults:[] ~omit:(fun src _ -> src <= 1));
    }
  in
  let o = run_es ~n ~t:4 ~adversary inputs in
  ignore (check ~what:"es chain" ~inputs o)

let suite =
  suite
  @ [
      Alcotest.test_case "early-stopping fast path" `Quick
        test_es_no_faults_fast;
      Alcotest.test_case "early-stopping f+O(1) rounds" `Quick
        test_es_early_stopping_rounds;
      Alcotest.test_case "early-stopping validity" `Quick test_es_validity;
      Alcotest.test_case "early-stopping crash grid" `Quick test_es_crash_grid;
      Alcotest.test_case "early-stopping crash chain" `Quick
        test_es_mid_round_crash_chain;
    ]
