(* Tests for the run supervision layer: watchdog budgets, failure
   quarantine, and chaos-mode fault injection (the cache-aware wrappers
   are covered in test_cache.ml).
   The chaos tests are the containment proof the module's docstring
   promises: injected failures are quarantined while every other task's
   result stays bit-identical to a fault-free run. *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i =
    i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1))
  in
  at 0

let cfg ?(n = 8) ?(max_rounds = 10) () =
  Sim.Config.make ~n ~t_max:2 ~seed:1 ~max_rounds ()

let echo = (module Test_engine.Echo : Sim.Protocol_intf.BUFFERED)

(* the linkless runs here carry no degradation report: drop its slot *)
let srun ?budget ?(proto = echo) ?(n = 8) ?(max_rounds = 10) () =
  Supervise.run ?budget ~property:Consensus proto
    (cfg ~n ~max_rounds ())
    ~adversary:Sim.Adversary_intf.none
    ~inputs:(Array.init n (fun i -> i mod 2))
  |> Result.map fst
  |> Result.map_error (fun (k, p) -> (k, Option.map fst p))

(* --- watchdog budgets over the engine --- *)

let test_round_budget () =
  (* echo decides at round 4; a 2-round ceiling trips first *)
  match srun ~budget:(Supervise.Budget.make ~max_rounds:2 ()) () with
  | Error (Supervise.Budget_exceeded b, Some partial) ->
      Alcotest.(check string) "metric" "rounds" b.Supervise.metric;
      Alcotest.(check int) "tripped at round 2" 2 b.at_round;
      Alcotest.(check int) "partial outcome kept its counters" 2
        partial.Sim.Engine.rounds_total;
      Alcotest.(check (option int)) "undecided" None partial.decided_round
  | _ -> Alcotest.fail "expected Budget_exceeded(rounds) with partial outcome"

let test_message_budget () =
  (* echo broadcasts 8*7 = 56 messages a round; 60 allows one round *)
  match srun ~budget:(Supervise.Budget.make ~max_messages:60 ()) () with
  | Error (Supervise.Budget_exceeded b, Some partial) ->
      Alcotest.(check string) "metric" "messages" b.Supervise.metric;
      Alcotest.(check int) "tripped at round 2" 2 b.at_round;
      Alcotest.(check int) "actual = cumulative messages" 112
        (int_of_float b.actual);
      Alcotest.(check int) "partial counters intact" 112
        partial.Sim.Engine.messages_sent
  | _ -> Alcotest.fail "expected Budget_exceeded(messages)"

let test_rand_bits_budget () =
  (* only pid 0 flips a coin, one bit per round; ceiling 2 is inclusive,
     so the third bit trips it *)
  match srun ~budget:(Supervise.Budget.make ~max_rand_bits:2 ()) () with
  | Error (Supervise.Budget_exceeded b, Some partial) ->
      Alcotest.(check string) "metric" "rand_bits" b.Supervise.metric;
      Alcotest.(check int) "tripped at round 3" 3 b.at_round;
      Alcotest.(check int) "partial rand bits" 3 partial.Sim.Engine.rand_bits
  | _ -> Alcotest.fail "expected Budget_exceeded(rand_bits)"

let test_wall_budget () =
  match srun ~budget:(Supervise.Budget.make ~wall_s:1e-9 ()) () with
  | Error (Supervise.Timeout { limit_s; elapsed_s }, Some partial) ->
      Alcotest.(check bool) "limit recorded" true (limit_s = 1e-9);
      Alcotest.(check bool) "elapsed > limit" true (elapsed_s > limit_s);
      Alcotest.(check int) "stopped after the first round" 1
        partial.Sim.Engine.rounds_total
  | _ -> Alcotest.fail "expected Timeout"

let test_decided_beats_breach () =
  (* the decision lands at round 4, the same round the ceiling would trip:
     deciding wins — a finished measurement is never a supervision failure *)
  match srun ~budget:(Supervise.Budget.make ~max_rounds:4 ()) () with
  | Ok o ->
      Alcotest.(check (option int)) "decided" (Some 4) o.Sim.Engine.decided_round
  | Error _ -> Alcotest.fail "a decided run must be Ok"

let test_max_rounds_is_not_a_breach () =
  (* running out of cfg.max_rounds undecided is a measurement, not a
     failure: only explicit budget ceilings quarantine *)
  match
    srun ~budget:(Supervise.Budget.make ~max_rounds:50 ()) ~max_rounds:3 ()
  with
  | Ok o ->
      Alcotest.(check (option int)) "undecided" None o.Sim.Engine.decided_round;
      Alcotest.(check int) "capped by config" 3 o.rounds_total
  | Error _ -> Alcotest.fail "cfg.max_rounds exhaustion must stay Ok"

let test_unlimited_budget_ok () =
  match srun ~budget:Supervise.Budget.unlimited () with
  | Ok o ->
      Alcotest.(check (option int)) "decides normally" (Some 4)
        o.Sim.Engine.decided_round
  | Error _ -> Alcotest.fail "unlimited budget must not interfere"

let test_budget_validation () =
  Alcotest.check_raises "non-positive ceiling rejected"
    (Invalid_argument "Budget.make: max_rounds must be positive") (fun () ->
      ignore (Supervise.Budget.make ~max_rounds:0 ()));
  Alcotest.(check bool) "make () is unlimited" true
    (Supervise.Budget.is_unlimited (Supervise.Budget.make ()))

let test_breach_text () =
  let text kind = Fmt.str "%a" Supervise.pp_failure_kind kind in
  (* the round ceiling trips when reached, not passed *)
  Alcotest.(check string) "rounds"
    "budget exceeded: still undecided at the 2-round ceiling"
    (text
       (Supervise.Budget_exceeded
          { metric = "rounds"; limit = 2.; actual = 2.; at_round = 2 }));
  Alcotest.(check string) "messages"
    "budget exceeded: messages = 112 > 60 at round 2"
    (text
       (Supervise.Budget_exceeded
          { metric = "messages"; limit = 60.; actual = 112.; at_round = 2 }))

(* --- crash containment in Supervise.run --- *)

let test_protocol_crash_contained () =
  let proto = Supervise.Chaos.protocol ~crash_round:2 echo in
  match srun ~proto () with
  | Error (Supervise.Crashed { exn_text; _ }, None) ->
      Alcotest.(check bool) "exception text identifies the injection" true
        (contains (String.lowercase_ascii exn_text) "injected")
  | _ -> Alcotest.fail "a raising protocol must be Error (Crashed, None)"

let test_protocol_crash_pid_filter () =
  (* a pid that exists fires the crash ... *)
  let victim = Supervise.Chaos.protocol ~pid:3 ~crash_round:2 echo in
  (match srun ~proto:victim () with
  | Error (Supervise.Crashed _, None) -> ()
  | _ -> Alcotest.fail "the named pid must crash");
  (* ... the victim pid 99 never exists at n = 8, so that wrapped protocol
     is indistinguishable from the original *)
  let proto = Supervise.Chaos.protocol ~pid:99 ~crash_round:2 echo in
  match (srun ~proto (), srun ()) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "outcome bit-identical to unwrapped" true (a = b)
  | _ -> Alcotest.fail "non-matching pid must not crash"

let test_illegal_plan_contained () =
  let adversary =
    {
      Sim.Adversary_intf.name = "cheater";
      create =
        (fun _ _ _ ->
          Sim.View.pointwise ~new_faults:[] ~omit:(fun _ _ -> true));
    }
  in
  let r =
    Supervise.run ~property:Consensus echo (cfg ()) ~adversary
      ~inputs:(Array.init 8 (fun i -> i mod 2))
  in
  match r with
  | Error (Supervise.Crashed { exn_text; _ }, None) ->
      Alcotest.(check bool) "Illegal_plan captured as text" true
        (exn_text <> "")
  | _ -> Alcotest.fail "Illegal_plan must be contained, not propagated"

(* --- the outcome oracle on the supervised route --- *)

(* A protocol that sends nothing and decides [decide cfg ~input] in
   round 1. *)
let decider decide : Sim.Protocol_intf.buffered =
  (module struct
    type state = { input : int; mutable decision : int option }
    type msg = unit

    let name = "decider"
    let init _ ~pid:_ ~input = { input; decision = None }

    let step_into cfg st ~round ~inbox:_ ~rand:_ ~emit:_ ~emit_all:_ =
      if round = 1 then st.decision <- Some (decide cfg ~input:st.input);
      st

    let observe st =
      { Sim.View.candidate = Some st.input; operative = true; decided = st.decision }

    let msg_bits () = 1
    let msg_hint () = None
  end)

(* agrees on 0 except at seed 2, where every process keeps its input *)
let split_on_seed_2 =
  decider (fun cfg ~input -> if cfg.Sim.Config.seed = 2 then input else 0)

(* A sweep task over [Supervise.run]: untraced and linkless (the mask
   route) unless [tail], whose lines ride along on a failure. *)
let oracle_task ?(tail = false) ?(inputs = fun i -> i mod 2) proto seed =
  let n = 8 in
  let tail = if tail then Some (Trace.Tail.create ~rounds:2 ()) else None in
  match
    Supervise.run
      ?trace:(Option.map Trace.Tail.sink tail)
      ~property:Consensus proto
      (Sim.Config.make ~n ~t_max:2 ~seed ~max_rounds:3 ())
      ~adversary:Sim.Adversary_intf.none ~inputs:(Array.init n inputs)
  with
  | Ok (o, _) -> o
  | Error (kind, _) ->
      let trace = Option.fold ~none:[] ~some:Trace.Tail.lines tail in
      raise (Supervise.Breach { kind; trace; replay = None })

let test_violation_quarantined () =
  List.iter
    (fun tail ->
      let r =
        Supervise.map ~jobs:1 (oracle_task ~tail split_on_seed_2) [| 1; 2; 3 |]
      in
      (match (r.(0), r.(2)) with
      | Ok _, Ok _ -> ()
      | _ -> Alcotest.fail "agreeing seeds must stay Ok");
      match r.(1) with
      | Error ({ kind = Supervise.Violated { property; _ }; _ } as f) ->
          Alcotest.(check string) "property" "agreement" property;
          Alcotest.(check bool) "tail attached iff traced" tail (f.trace <> []);
          Alcotest.(check bool) "quarantine JSON" true
            (contains (Supervise.failure_json f) {|"failure":"violated"|})
      | _ -> Alcotest.fail "the disagreeing seed must be quarantined as violated")
    [ false; true ]

let test_validity_violated () =
  let always_1 = decider (fun _ ~input:_ -> 1) in
  (match oracle_task ~inputs:(fun _ -> 0) always_1 1 with
  | _ -> Alcotest.fail "deciding 1 on all-zero inputs must be rejected"
  | exception Supervise.Breach { kind = Supervise.Violated { property; _ }; _ }
    ->
      Alcotest.(check string) "property" "validity" property);
  match oracle_task always_1 1 with
  | o -> Alcotest.(check (option int)) "valid on mixed inputs" (Some 1)
           (Sim.Engine.agreed_decision o)
  | exception Supervise.Breach { kind; _ } ->
      Alcotest.failf "mixed inputs: %a" Supervise.pp_failure_kind kind

(* Operative-broadcast with one pid that turns every decision into 0: 0 is
   the default, so validity holds and only the Section-6 delivery check
   can tell. *)
let keeps_zero ~victim (module P : Sim.Protocol_intf.BUFFERED) :
    Sim.Protocol_intf.buffered =
  (module struct
    type state = { pid : int; inner : P.state }
    type msg = P.msg

    let name = P.name ^ "+keeps-zero"
    let init cfg ~pid ~input = { pid; inner = P.init cfg ~pid ~input }

    let step_into cfg st ~round ~inbox ~rand ~emit ~emit_all =
      {
        st with
        inner = P.step_into cfg st.inner ~round ~inbox ~rand ~emit ~emit_all;
      }

    let observe st =
      let o = P.observe st.inner in
      if st.pid = victim then
        { o with Sim.View.decided = Option.map (fun _ -> 0) o.decided }
      else o

    let msg_bits = P.msg_bits
    let msg_hint = P.msg_hint
  end)

let test_broadcast_delivery_violated () =
  let n = 16 in
  let (module B) = Consensus.Operative_broadcast.builder ~source:0 () in
  let cfg0 = Sim.Config.make ~n ~t_max:2 ~seed:1 () in
  let cfg = { cfg0 with Sim.Config.max_rounds = B.rounds_needed cfg0 } in
  let run ?(adversary = Sim.Adversary_intf.none) proto =
    Supervise.run ~property:(Broadcast { source = 0 }) proto cfg ~adversary
      ~inputs:(Array.make n 1)
  in
  (match run (B.build cfg) with
  | Ok _ -> ()
  | Error (k, _) -> Alcotest.failf "the real broadcast: %a" Supervise.pp_failure_kind k);
  (match run (keeps_zero ~victim:5 (B.build cfg)) with
  | Error (Supervise.Violated { property; detail }, Some _) ->
      Alcotest.(check string) "property" "broadcast-delivery" property;
      Alcotest.(check bool) "names the pid" true (contains detail "pid 5 ")
  | Ok _ -> Alcotest.fail "an operative pid deciding 0 must be rejected"
  | Error (k, _) -> Alcotest.failf "unexpected %a" Supervise.pp_failure_kind k);
  (* the guarantee is conditional: with the source crashed, 0 is fine *)
  match
    run
      ~adversary:(Adversary.crash_schedule [ (1, [ 0 ]) ])
      (keeps_zero ~victim:5 (B.build cfg))
  with
  | Ok _ -> ()
  | Error (k, _) ->
      Alcotest.failf "crashed source: %a" Supervise.pp_failure_kind k

(* --- quarantining map: the chaos containment proof --- *)

(* a real seeded sweep task, pure in its index *)
let sweep_task i =
  let n = 16 and seed = i + 1 in
  let cfg = Sim.Config.make ~n ~t_max:4 ~seed ~max_rounds:2000 () in
  let proto = Consensus.Bjbo.protocol_buffered cfg in
  let inputs = Array.init n (fun j -> j mod 2) in
  Sim.Engine.run proto cfg ~adversary:(Adversary.vote_splitter ()) ~inputs

let describe i _ =
  {
    Supervise.d_label = Printf.sprintf "chaos-sweep/seed=%d" (i + 1);
    d_seed = Some (i + 1);
    d_replay =
      Some
        (Printf.sprintf
           "dune exec bin/consensus_sim.exe -- run -p bjbo -n 16 -t 4 \
            --seed %d -a splitter"
           (i + 1));
  }

let test_chaos_containment () =
  let n = 12 in
  let idxs = Array.init n (fun i -> i) in
  let baseline = Array.map sweep_task idxs in
  (* seeded victim selection: 3 crashes, 2 stragglers among the survivors *)
  let crash = Supervise.Chaos.pick ~seed:42 ~n ~k:3 in
  let straggle =
    List.filteri
      (fun i _ -> i < 2)
      (List.filter (fun i -> not (List.mem i crash)) (Array.to_list idxs))
  in
  let plan = Supervise.Chaos.make ~crash ~straggle ~straggle_s:0.01 () in
  let results =
    Supervise.map ~jobs:4 ~describe
      (fun i -> Supervise.Chaos.wrap plan (fun _ j -> sweep_task j) i i)
      idxs
  in
  Alcotest.(check int) "every task has a slot" n (Array.length results);
  let quarantined = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Ok o ->
          Alcotest.(check bool)
            (Printf.sprintf "survivor %d bit-identical to fault-free run" i)
            true
            (o = baseline.(i));
          Alcotest.(check bool)
            (Printf.sprintf "%d was not a crash victim" i)
            false (List.mem i crash)
      | Error fl -> (
          incr quarantined;
          Alcotest.(check bool)
            (Printf.sprintf "%d was a chosen victim" i)
            true (List.mem i crash);
          Alcotest.(check int) "failure index" i fl.Supervise.index;
          Alcotest.(check string) "failure label"
            (Printf.sprintf "chaos-sweep/seed=%d" (i + 1))
            fl.label;
          Alcotest.(check (option int)) "failure seed" (Some (i + 1)) fl.seed;
          Alcotest.(check bool) "replay command present" true
            (fl.replay <> None);
          match fl.kind with
          | Supervise.Crashed { exn_text; _ } ->
              Alcotest.(check bool) "injection visible in record" true
                (contains (String.lowercase_ascii exn_text) "injected")
          | _ -> Alcotest.fail "injected crash must quarantine as Crashed"))
    results;
  Alcotest.(check int) "exactly k quarantined" (List.length crash) !quarantined

let test_map_breach_passthrough () =
  (* a task that raises Breach keeps its precise kind in quarantine *)
  let kind = Supervise.Timeout { limit_s = 1.0; elapsed_s = 2.0 } in
  let r =
    Supervise.map ~jobs:1
      (fun i ->
        if i = 1 then
          raise (Supervise.Breach { kind; trace = []; replay = None })
        else i)
      [| 0; 1; 2 |]
  in
  (match r.(1) with
  | Error { kind = Supervise.Timeout { limit_s; _ }; _ } ->
      Alcotest.(check bool) "kind preserved" true (limit_s = 1.0)
  | _ -> Alcotest.fail "Breach kind must pass through verbatim");
  match (r.(0), r.(2)) with
  | Ok 0, Ok 2 -> ()
  | _ -> Alcotest.fail "neighbours unaffected"

let test_map_breach_replay () =
  (* a breach's own replay line is recorded ahead of the descriptor's;
     without one, the descriptor's stands *)
  let kind = Supervise.Timeout { limit_s = 1.0; elapsed_s = 2.0 } in
  let describe i _ =
    {
      Supervise.d_label = string_of_int i;
      d_seed = None;
      d_replay = Some "descriptor line";
    }
  in
  let r =
    Supervise.map ~jobs:1 ~describe
      (fun replay -> raise (Supervise.Breach { kind; trace = []; replay }))
      [| Some "run line"; None |]
  in
  match (r.(0), r.(1)) with
  | Error own, Error fallback ->
      Alcotest.(check (option string))
        "the breach's line" (Some "run line") own.Supervise.replay;
      Alcotest.(check (option string))
        "the descriptor's line" (Some "descriptor line")
        fallback.Supervise.replay
  | _ -> Alcotest.fail "both tasks must be quarantined"

let test_map_wall_timeout () =
  let budget = Supervise.Budget.make ~wall_s:0.005 () in
  let r =
    Supervise.map ~jobs:1 ~budget
      (fun i ->
        if i = 0 then Unix.sleepf 0.05;
        i)
      [| 0; 1 |]
  in
  (match r.(0) with
  | Error { kind = Supervise.Timeout _; _ } -> ()
  | _ -> Alcotest.fail "overrunning task must time out");
  match r.(1) with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "fast task unaffected"

let test_protect_and_json () =
  let d =
    {
      Supervise.d_label = "solo \"quoted\"";
      d_seed = Some 7;
      d_replay = Some "echo replay";
    }
  in
  match
    (Supervise.map ~describe:(fun _ () -> d) (fun () -> failwith "boom")
       [| () |]).(0)
  with
  | Ok _ -> Alcotest.fail "raising task must be quarantined"
  | Error fl ->
      Alcotest.(check int) "single-task index" 0 fl.Supervise.index;
      let j = Supervise.failure_json fl in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true
            (contains j needle))
        [
          "\"kind\":\"quarantine\"";
          "\"failure\":\"crashed\"";
          "\"label\":\"solo \\\"quoted\\\"\"";
          "\"seed\":7";
          "\"replay\":\"echo replay\"";
          "\"exn\":";
          "\"elapsed_s\":";
        ]

(* --- chaos victim selection --- *)

let test_chaos_pick () =
  let a = Supervise.Chaos.pick ~seed:5 ~n:20 ~k:6 in
  let b = Supervise.Chaos.pick ~seed:5 ~n:20 ~k:6 in
  Alcotest.(check (list int)) "deterministic in seed" a b;
  Alcotest.(check int) "k victims" 6 (List.length a);
  Alcotest.(check (list int)) "sorted" (List.sort compare a) a;
  Alcotest.(check int) "distinct" 6
    (List.length (List.sort_uniq compare a));
  List.iter
    (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20))
    a;
  let c = Supervise.Chaos.pick ~seed:6 ~n:20 ~k:6 in
  Alcotest.(check bool) "seed changes the draw" true (a <> c);
  Alcotest.(check (list int)) "k=n is everyone"
    (List.init 20 Fun.id)
    (Supervise.Chaos.pick ~seed:1 ~n:20 ~k:20);
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Chaos.pick: need 0 <= k <= n") (fun () ->
      ignore (Supervise.Chaos.pick ~seed:1 ~n:3 ~k:4))

(* The plan's membership masks are sized to the largest victim index:
   tasks indexed beyond the masks (and with sparse victim lists, between
   victims) must run untouched, and exactly the listed indices must raise. *)
let test_chaos_mask_bounds () =
  let plan = Supervise.Chaos.make ~crash:[ 1; 7 ] () in
  let ran i =
    try
      Supervise.Chaos.wrap plan (fun _ j -> j * 2) i i |> ignore;
      true
    with Supervise.Chaos.Injected _ -> false
  in
  List.iter
    (fun (i, expect) ->
      Alcotest.(check bool) (Printf.sprintf "task %d" i) expect (ran i))
    [ (0, true); (1, false); (2, true); (6, true); (7, false);
      (8, true) (* first index past the mask *); (500, true) ];
  (* an empty plan touches nothing at any index *)
  let idle = Supervise.Chaos.make () in
  Alcotest.(check int) "empty plan is identity" 84
    (Supervise.Chaos.wrap idle (fun _ j -> j * 2) 123 42)

let suite =
  [
    Alcotest.test_case "round budget breach" `Quick test_round_budget;
    Alcotest.test_case "message budget breach" `Quick test_message_budget;
    Alcotest.test_case "rand-bits budget breach" `Quick test_rand_bits_budget;
    Alcotest.test_case "wall-clock timeout" `Quick test_wall_budget;
    Alcotest.test_case "decided run beats breach" `Quick
      test_decided_beats_breach;
    Alcotest.test_case "max_rounds is a measurement" `Quick
      test_max_rounds_is_not_a_breach;
    Alcotest.test_case "unlimited budget" `Quick test_unlimited_budget_ok;
    Alcotest.test_case "budget validation" `Quick test_budget_validation;
    Alcotest.test_case "breach text" `Quick test_breach_text;
    Alcotest.test_case "violation quarantined, tail attached" `Quick
      test_violation_quarantined;
    Alcotest.test_case "validity mutant violated" `Quick test_validity_violated;
    Alcotest.test_case "broadcast delivery mutant violated" `Quick
      test_broadcast_delivery_violated;
    Alcotest.test_case "protocol crash contained" `Quick
      test_protocol_crash_contained;
    Alcotest.test_case "chaos pid filter" `Quick test_protocol_crash_pid_filter;
    Alcotest.test_case "Illegal_plan contained" `Quick
      test_illegal_plan_contained;
    Alcotest.test_case "chaos containment: N-k bit-identical, k quarantined"
      `Quick test_chaos_containment;
    Alcotest.test_case "Breach replay line wins" `Quick test_map_breach_replay;
    Alcotest.test_case "Breach kind passthrough" `Quick
      test_map_breach_passthrough;
    Alcotest.test_case "map wall timeout" `Quick test_map_wall_timeout;
    Alcotest.test_case "protect + quarantine JSON schema" `Quick
      test_protect_and_json;
    Alcotest.test_case "chaos pick" `Quick test_chaos_pick;
    Alcotest.test_case "chaos masks bound-checked and sparse-safe" `Quick
      test_chaos_mask_bounds;
  ]
