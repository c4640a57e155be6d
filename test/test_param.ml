(* Integration tests for ParamOmissions (Algorithm 4): consensus conditions
   across x, the randomness/time trade-off, and robustness. *)

let run ?(n = 64) ?t ?(x = 4) ?(seed = 1) ?(adversary = Sim.Adversary_intf.none)
    inputs =
  let t = match t with Some t -> t | None -> max 1 (n / 61) in
  let cfg0 = Sim.Config.make ~n ~t_max:t ~seed () in
  let max_rounds = Consensus.Param_omissions.rounds_needed ~x cfg0 + 10 in
  let cfg = { cfg0 with Sim.Config.max_rounds } in
  let proto = Consensus.Param_omissions.protocol_buffered ~x cfg in
  Sim.Engine.run proto cfg ~adversary ~inputs

let check_consensus ~what ~inputs o =
  Alcotest.(check bool)
    (what ^ ": all decided")
    true
    (Sim.Engine.all_nonfaulty_decided o);
  match Sim.Engine.agreed_decision o with
  | None -> Alcotest.fail (what ^ ": agreement violated")
  | Some v ->
      Alcotest.(check bool)
        (what ^ ": decision is an input")
        true
        (Array.exists (fun b -> b = v) inputs);
      v

let mixed n = Array.init n (fun i -> i mod 2)

let test_basic_each_x () =
  List.iter
    (fun x ->
      let inputs = mixed 64 in
      let o = run ~x inputs in
      ignore (check_consensus ~what:(Printf.sprintf "x=%d" x) ~inputs o))
    [ 1; 2; 4; 8; 16 ]

let test_validity () =
  List.iter
    (fun b ->
      List.iter
        (fun x ->
          let inputs = Array.make 48 b in
          let o = run ~n:48 ~x inputs in
          let v = check_consensus ~what:"validity" ~inputs o in
          Alcotest.(check int) "validity value" b v;
          Alcotest.(check int) "unanimity uses no randomness" 0 o.rand_calls)
        [ 2; 6 ])
    [ 0; 1 ]

let test_adversaries () =
  List.iter
    (fun adversary ->
      let inputs = mixed 60 in
      let o = run ~n:60 ~x:4 ~adversary inputs in
      ignore
        (check_consensus
           ~what:("x=4 vs " ^ adversary.Sim.Adversary_intf.name)
           ~inputs o))
    (Adversary.standard_suite ~n:60)

let test_tradeoff_monotone () =
  (* more super-processes => no more randomness (Theorem 3's shape) *)
  let inputs = mixed 64 in
  let measures =
    List.map
      (fun x ->
        let o = run ~x ~seed:3 inputs in
        ignore (check_consensus ~what:"tradeoff" ~inputs o);
        (x, o.rand_calls, o.rounds_total))
      [ 1; 4; 16 ]
  in
  match measures with
  | [ (_, r1, t1); (_, r4, _); (_, r16, t16) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "randomness non-increasing: %d >= %d >= %d" r1 r4 r16)
        true
        (r1 >= r4 && r4 >= r16);
      Alcotest.(check bool)
        (Printf.sprintf "rounds increase with x: %d < %d" t1 t16)
        true (t1 < t16)
  | _ -> assert false

let test_x_equals_n_over_2 () =
  (* tiny super-processes of 2 members *)
  let n = 32 in
  let inputs = mixed n in
  let o = run ~n ~x:16 inputs in
  ignore (check_consensus ~what:"x=n/2" ~inputs o)

let test_determinism () =
  let inputs = mixed 48 in
  let o1 = run ~n:48 ~x:4 ~seed:9 ~adversary:(Adversary.vote_splitter ()) inputs in
  let o2 = run ~n:48 ~x:4 ~seed:9 ~adversary:(Adversary.vote_splitter ()) inputs in
  Alcotest.(check (array (option int))) "same decisions" o1.decisions o2.decisions;
  Alcotest.(check int) "same bits" o1.bits_sent o2.bits_sent

let test_sub_runs_confined () =
  (* during phase i only SP_i members and flooders speak: total sub-message
     traffic must stay well below n^2 per sub-round; sanity-check via the
     per-run total being far below an all-to-all equivalent *)
  let n = 64 in
  let inputs = mixed n in
  let o = run ~n ~x:8 inputs in
  let all_to_all = o.rounds_total * n * (n - 1) in
  Alcotest.(check bool) "traffic below all-to-all" true
    (o.messages_sent < all_to_all / 4)

(* Each super-process's records are priced with its own bit widths. At
   n = 10, x = 3 the super-processes hold 4, 4 and 2 members; the last
   one is a single group, so a spreading entry's group index takes 1 bit
   where the 4-member ones take 2. *)
let test_sub_pricing_per_super_process () =
  let n = 10 and x = 3 in
  let cfg0 = Sim.Config.make ~n ~t_max:0 ~seed:1 () in
  let cfg =
    {
      cfg0 with
      Sim.Config.max_rounds =
        Consensus.Param_omissions.rounds_needed ~x cfg0 + 10;
    }
  in
  let sink, events = Trace.Sink.memory () in
  let (_ : Sim.Engine.outcome) =
    Sim.Engine.run ~trace:sink
      (Consensus.Param_omissions.protocol_buffered ~x cfg)
      cfg ~adversary:Sim.Adversary_intf.none ~inputs:(mixed n)
  in
  (* phase 2 runs the core of super-process 2 = pids [8, 10) *)
  let params = Consensus.Params.default in
  let core_len m =
    Consensus.Core.schedule_length ~params ~t_max:(max 1 (m / 30)) m
  in
  let phase_len =
    max (core_len 4) (core_len 2) + (2 * Consensus.Params.log2_ceil n)
  in
  let sh = Consensus.Core.make_shared ~lo:8 ~m:2 ~seed:0 ~params ~t_max:1 () in
  let spreading round =
    let ls = round - (2 * phase_len) in
    ls >= 1
    && ls <= Array.length sh.Consensus.Core.schedule
    &&
    match sh.Consensus.Core.schedule.(ls - 1) with
    | Consensus.Core.Spread _ -> true
    | Agg_a _ | Agg_b _ | Agg_c _ | Bcast -> false
  in
  let sends =
    List.filter_map
      (function
        | Trace.Event.Send { round; src; bits; _ } when spreading round ->
            Some (src, bits)
        | _ -> None)
      (events ())
  in
  Alcotest.(check bool) "spreading slots carry messages" true (sends <> []);
  List.iter
    (fun (src, bits) ->
      Alcotest.(check bool)
        (Printf.sprintf "pid %d is in super-process 2" src)
        true
        (src = 8 || src = 9);
      Alcotest.(check bool)
        (Printf.sprintf "%d bits: a heartbeat (5) or a one-entry delta (10)"
           bits)
        true
        (bits = 5 || bits = 10))
    sends;
  Alcotest.(check bool) "a one-entry delta is sent" true
    (List.exists (fun (_, bits) -> bits = 10) sends)

let suite =
  [
    Alcotest.test_case "consensus for each x" `Slow test_basic_each_x;
    Alcotest.test_case "validity" `Quick test_validity;
    Alcotest.test_case "all adversaries" `Slow test_adversaries;
    Alcotest.test_case "randomness/time trade-off" `Slow test_tradeoff_monotone;
    Alcotest.test_case "tiny super-processes" `Quick test_x_equals_n_over_2;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "sub-runs confined" `Quick test_sub_runs_confined;
    Alcotest.test_case "sub-runs priced per super-process" `Quick
      test_sub_pricing_per_super_process;
  ]
