(* Tests for the lossy-link transport layer (lib/net): spec parsing and its
   error paths, transport determinism, the zero-fault byte-identity
   guarantee over every registry protocol, the
   synchronizer's masking guarantee, the graceful degradation of residual
   losses into induced omission faults, and the greedy-cover attribution. *)

let spec_of s =
  match Net.Spec.of_string s with
  | Ok spec -> spec
  | Error m -> Alcotest.failf "spec %S rejected: %s" s m

(* --- Spec parsing --- *)

let test_spec_parse () =
  let s = spec_of "drop=0.25,dup=0.1,delay=0.2:3,stall=0.05:2,retries=6" in
  Alcotest.(check (float 0.)) "drop" 0.25 s.Net.Spec.drop;
  Alcotest.(check (float 0.)) "dup" 0.1 s.Net.Spec.dup;
  Alcotest.(check (float 0.)) "delay" 0.2 s.Net.Spec.delay;
  Alcotest.(check int) "delay_max" 3 s.Net.Spec.delay_max;
  Alcotest.(check (float 0.)) "stall" 0.05 s.Net.Spec.stall;
  Alcotest.(check int) "stall_len" 2 s.Net.Spec.stall_len;
  Alcotest.(check int) "retries" 6 s.Net.Spec.retries;
  Alcotest.(check bool) "not zero-fault" false (Net.Spec.zero_fault s);
  let b = spec_of "burst=0.1:0.4:0.8,backoff=2:16" in
  Alcotest.(check (float 0.)) "burst_to_bad" 0.1 b.Net.Spec.burst_to_bad;
  Alcotest.(check (float 0.)) "burst_to_good" 0.4 b.Net.Spec.burst_to_good;
  Alcotest.(check (float 0.)) "burst_drop" 0.8 b.Net.Spec.burst_drop;
  Alcotest.(check int) "backoff_base" 2 b.Net.Spec.backoff_base;
  Alcotest.(check int) "backoff_cap" 16 b.Net.Spec.backoff_cap;
  Alcotest.(check bool) "drop=0 is zero-fault" true
    (Net.Spec.zero_fault (spec_of "drop=0"))

let test_spec_roundtrip () =
  List.iter
    (fun str ->
      let s = spec_of str in
      let s' = spec_of (Net.Spec.to_string s) in
      if s <> s' then
        Alcotest.failf "spec %S changed over to_string (%s)" str
          (Net.Spec.to_string s))
    [
      "drop=0";
      "drop=0.3";
      "drop=0.2,dup=0.05,delay=0.1:4";
      "stall=0.01:3,retries=0";
      "burst=0.2:0.6:0.9";
      "drop=0.1,retries=9,backoff=2:32";
    ];
  Alcotest.(check string) "default prints as drop=0" "drop=0"
    (Net.Spec.to_string Net.Spec.default)

(* Satellite: every malformed spec is rejected with a one-line error naming
   the offending key. Exact strings, so the CLI message stays stable. *)
let test_spec_errors () =
  List.iter
    (fun (input, want) ->
      match Net.Spec.of_string input with
      | Ok _ -> Alcotest.failf "spec %S unexpectedly accepted" input
      | Error m -> Alcotest.(check string) input want m)
    [
      ("", "net spec: empty spec");
      ("drop", "net spec: missing '=' in \"drop\"");
      ("drop=1.5", "net spec: drop: probability must be within [0,1] (got 1.5)");
      ("drop=-0.1", "net spec: drop: probability must be within [0,1] (got -0.1)");
      ("dup=abc", "net spec: dup: not a number (got \"abc\")");
      ("frop=0.1", "net spec: unknown key \"frop\"");
      ( "burst=0.1:0.2",
        "net spec: burst: wrong number of ':'-separated fields in \"0.1:0.2\"" );
      ("retries=-1", "net spec: retries: must be >= 0 (got -1)");
      ("backoff=4:2", "net spec: backoff: cap 2 < base 4");
      ("delay=0.1:0", "net spec: delay: must be >= 1 (got 0)");
      ("retries=two", "net spec: retries: not an integer (got \"two\")");
    ]

(* --- Transport determinism --- *)

let drive tr ~n ~rounds =
  let link = Net.Transport.link tr in
  let verdicts = ref [] in
  for r = 1 to rounds do
    link.Sim.Link_intf.begin_round ~round:r;
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then
          verdicts :=
            link.Sim.Link_intf.transmit ~trace:None ~round:r ~src ~dst
            :: !verdicts
      done
    done
  done;
  (List.rev !verdicts, Net.Transport.stats tr)

let test_transport_deterministic () =
  let spec = spec_of "drop=0.3,dup=0.1,delay=0.1:2,stall=0.05" in
  let cfg = Sim.Config.make ~n:6 ~t_max:1 ~seed:11 () in
  let tr = Net.Transport.create spec cfg in
  let link = Net.Transport.link tr in
  link.Sim.Link_intf.reset ~seed:11;
  let a = drive tr ~n:6 ~rounds:8 in
  link.Sim.Link_intf.reset ~seed:11;
  let b = drive tr ~n:6 ~rounds:8 in
  Alcotest.(check bool) "same seed, same run" true (a = b);
  link.Sim.Link_intf.reset ~seed:12;
  let c = drive tr ~n:6 ~rounds:8 in
  Alcotest.(check bool) "different seed, different faults" true (a <> c)

(* Zero-fault transport: every exchange delivered, and nothing reaches the
   trace sink (the sink here raises on any emission). *)
let test_zero_fault_silent () =
  let poisoned =
    Trace.Sink.make
      ~emit:(fun e ->
        Alcotest.failf "zero-fault transport emitted %s"
          (Trace.Event.to_json e))
      ~close:(fun () -> ())
  in
  let cfg = Sim.Config.make ~n:5 ~t_max:1 ~seed:3 () in
  let tr = Net.Transport.create Net.Spec.default cfg in
  let link = Net.Transport.link tr in
  link.Sim.Link_intf.reset ~seed:3;
  for r = 1 to 4 do
    link.Sim.Link_intf.begin_round ~round:r;
    for src = 0 to 4 do
      for dst = 0 to 4 do
        if src <> dst then
          match
            link.Sim.Link_intf.transmit ~trace:(Some poisoned) ~round:r ~src
              ~dst
          with
          | Sim.Link_intf.Delivered -> ()
          | Sim.Link_intf.Lost -> Alcotest.fail "zero-fault transport lost"
      done
    done
  done;
  let s = Net.Transport.stats tr in
  Alcotest.(check int) "attempts" (4 * 5 * 4) s.Net.Transport.attempts;
  Alcotest.(check int) "retransmits" 0 s.Net.Transport.retransmits;
  Alcotest.(check int) "slots = 2 per active round" 8 s.Net.Transport.slots;
  Alcotest.(check int) "active rounds" 4 s.Net.Transport.active_rounds

(* --- Zero-fault byte-identity over the whole registry --- *)

let capture ~n ~adv_idx run =
  let adversary =
    Adversary.resolve (List.nth (Adversary.standard_suite ~n) adv_idx)
  in
  let sink, events = Trace.Sink.memory () in
  let res =
    try Ok (run ~adversary ~trace:sink)
    with Sim.Engine.Illegal_plan m -> Error m
  in
  (res, List.map Trace.Event.to_json (events ()))

let check_equal ~ctx (res_a, trace_a) (res_b, trace_b) =
  if res_a <> res_b then
    Alcotest.failf "%s: outcomes differ (%s vs %s)" ctx
      (match res_a with Ok _ -> "Ok" | Error m -> "Illegal_plan " ^ m)
      (match res_b with Ok _ -> "Ok" | Error m -> "Illegal_plan " ^ m);
  if trace_a <> trace_b then
    Alcotest.failf "%s: traces differ (%d vs %d events)" ctx
      (List.length trace_a) (List.length trace_b)

(* With every fault probability at zero, running over the transport must be
   byte-identical — outcome and JSONL trace — to running without one, for
   every registry protocol. *)
let test_zero_fault_identity entry () =
  let n = max entry.Harness.Registry.min_n 12 in
  let t = max 1 (min 3 (entry.Harness.Registry.max_t n)) in
  let seed = 7 in
  let cfg0 = Sim.Config.make ~n ~t_max:t ~seed () in
  let cfg =
    Sim.Config.make ~n ~t_max:t ~seed
      ~max_rounds:(Harness.Registry.rounds_bound entry cfg0)
      ()
  in
  let inputs = Array.init n (fun i -> i mod 2) in
  let adversary_count = List.length (Adversary.standard_suite ~n) in
  for adv_idx = 0 to adversary_count - 1 do
    let ctx =
      Printf.sprintf "%s adv=%d" entry.Harness.Registry.id adv_idx
    in
    let with_link run =
      capture ~n ~adv_idx (fun ~adversary ~trace ->
          let tr = Net.Transport.create Net.Spec.default cfg in
          run ~link:(Net.Transport.link tr) ~adversary ~trace)
    in
    let linkless =
      capture ~n ~adv_idx (fun ~adversary ~trace ->
          Sim.Engine.run ~trace (Harness.Registry.build entry cfg) cfg
            ~adversary ~inputs)
    in
    let linked =
      with_link (fun ~link ~adversary ~trace ->
          Sim.Engine.run ~trace ~link (Harness.Registry.build entry cfg) cfg
            ~adversary ~inputs)
    in
    check_equal ~ctx linkless linked
  done

(* --- Synchronizer masking --- *)

let flood_cfg ~n ~t ~seed =
  let cfg0 = Sim.Config.make ~n ~t_max:t ~seed () in
  Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:(cfg0.Sim.Config.t_max + 3) ()


(* A loss rate the retry budget covers is fully masked: zero residual, no
   induced faults, and the outcome equals the linkless run's bit for bit. *)
let test_masking () =
  let cfg = flood_cfg ~n:12 ~t:2 ~seed:5 in
  let inputs = Array.init 12 (fun i -> i mod 2) in
  let baseline =
    match
      Supervise.run ~property:Consensus
        (Consensus.Flood.protocol_buffered cfg)
        cfg ~adversary:Adversary.none ~inputs
    with
    | Ok (o, _) -> o
    | Error _ -> Alcotest.fail "baseline run failed"
  in
  let net = spec_of "drop=0.3,retries=10" in
  match
    Supervise.run ~net ~property:Consensus
      (Consensus.Flood.protocol_buffered cfg)
      cfg ~adversary:Adversary.none ~inputs
  with
  | Ok (o, Some d) ->
      Alcotest.(check int) "residual" 0 d.Net.Degradation.residual;
      Alcotest.(check (list int)) "induced" [] d.Net.Degradation.induced_faulty;
      Alcotest.(check bool) "in model" false d.Net.Degradation.beyond_model;
      Alcotest.(check bool) "outcome identical to linkless run" true
        (o = baseline);
      Alcotest.(check bool) "losses were actually recovered" true
        (d.Net.Degradation.retransmits > 0);
      Alcotest.(check bool) "agreement holds" true
        (Supervise.Oracle.decision ~degradation:d o <> None)
  | _ -> Alcotest.fail "masked run reported a failure"

(* --- Graceful degradation --- *)

let test_beyond_model () =
  let cfg = flood_cfg ~n:8 ~t:1 ~seed:2 in
  let inputs = Array.init 8 (fun i -> i mod 2) in
  let net = spec_of "drop=0.9,retries=0" in
  match
    Supervise.run ~net ~property:Consensus
      (Consensus.Flood.protocol_buffered cfg)
      cfg ~adversary:Adversary.none ~inputs
  with
  | Ok _ -> Alcotest.fail "beyond-model run reported Ok"
  | Error (kind, partial) -> (
      (match kind with
      | Supervise.Degraded { induced; adversarial; t_max; residual } ->
          Alcotest.(check int) "t_max" 1 t_max;
          Alcotest.(check int) "no adversarial faults" 0 adversarial;
          Alcotest.(check bool) "induced exceeds t" true (induced > t_max);
          Alcotest.(check bool) "residual losses recorded" true (residual > 0)
      | k ->
          Alcotest.failf "expected Degraded, got %s"
            (Fmt.str "%a" Supervise.pp_failure_kind k));
      (match partial with
      | Some (_, None) | None ->
          Alcotest.fail "degraded run lost its forensic outcome"
      | Some (_, Some d) ->
          Alcotest.(check bool) "report flags beyond_model" true
            d.Net.Degradation.beyond_model;
          Alcotest.(check bool) "effective set exceeds t" true
            (List.length d.Net.Degradation.effective_faulty > 1));
      let failure =
        {
          Supervise.index = 0;
          label = "test/degraded";
          seed = Some 2;
          replay = None;
          kind;
          elapsed_s = 0.;
          trace = [];
        }
      in
      let json = Supervise.failure_json failure in
      let has_sub sub =
        let ls = String.length sub and lj = String.length json in
        let rec go i = i + ls <= lj && (String.sub json i ls = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "quarantine json says degraded" true
        (has_sub {|"failure":"degraded"|});
      Alcotest.(check bool) "quarantine json carries t_max" true
        (has_sub {|"t_max":1|}))

(* Stalled processes lose every exchange they touch. *)
let test_stall_blackout () =
  let spec = spec_of "stall=1:3,retries=2" in
  let cfg = Sim.Config.make ~n:4 ~t_max:1 ~seed:9 () in
  let tr = Net.Transport.create spec cfg in
  let link = Net.Transport.link tr in
  link.Sim.Link_intf.reset ~seed:9;
  link.Sim.Link_intf.begin_round ~round:1;
  for src = 0 to 3 do
    for dst = 0 to 3 do
      if src <> dst then
        match link.Sim.Link_intf.transmit ~trace:None ~round:1 ~src ~dst with
        | Sim.Link_intf.Lost -> ()
        | Sim.Link_intf.Delivered ->
            Alcotest.failf "stalled exchange %d->%d delivered" src dst
    done
  done;
  let s = Net.Transport.stats tr in
  Alcotest.(check int) "every exchange residual" 12 s.Net.Transport.residual

(* Duplication and delay are visible (traced, counted) but harmless: the
   exchange still delivers. *)
let test_dup_delay_events () =
  let spec = spec_of "dup=1,delay=1:3" in
  let cfg = Sim.Config.make ~n:3 ~t_max:1 ~seed:4 () in
  let tr = Net.Transport.create spec cfg in
  let link = Net.Transport.link tr in
  link.Sim.Link_intf.reset ~seed:4;
  link.Sim.Link_intf.begin_round ~round:1;
  let sink, events = Trace.Sink.memory () in
  (match link.Sim.Link_intf.transmit ~trace:(Some sink) ~round:1 ~src:0 ~dst:1 with
  | Sim.Link_intf.Delivered -> ()
  | Sim.Link_intf.Lost -> Alcotest.fail "dup/delay lost the exchange");
  let evs = events () in
  let has p = List.exists p evs in
  Alcotest.(check bool) "dup event" true
    (has (function Trace.Event.Dup _ -> true | _ -> false));
  Alcotest.(check bool) "delay event" true
    (has
       (function
         | Trace.Event.Delay { slots; _ } -> slots >= 1 && slots <= 3
         | _ -> false));
  let s = Net.Transport.stats tr in
  Alcotest.(check int) "dup counted" 1 s.Net.Transport.dups;
  Alcotest.(check int) "delay counted" 1 s.Net.Transport.delays;
  Alcotest.(check bool) "delay stretched the round" true
    (s.Net.Transport.slots > 2)

(* --- Greedy cover attribution --- *)

let test_greedy_cover () =
  Alcotest.(check (list int)) "star blames the hub" [ 0 ]
    (Net.Degradation.greedy_cover ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ]);
  Alcotest.(check int) "disjoint edges need two" 2
    (List.length (Net.Degradation.greedy_cover ~n:6 [ (0, 1); (2, 3) ]));
  Alcotest.(check (list int)) "empty" []
    (Net.Degradation.greedy_cover ~n:4 []);
  (* path a-b-c: one middle vertex covers both edges *)
  Alcotest.(check (list int)) "path blames the middle" [ 1 ]
    (Net.Degradation.greedy_cover ~n:3 [ (0, 1); (1, 2) ])

let suite =
  [
    Alcotest.test_case "spec: parses every key" `Quick test_spec_parse;
    Alcotest.test_case "spec: to_string round-trips" `Quick
      test_spec_roundtrip;
    Alcotest.test_case "spec: malformed specs name the offending key" `Quick
      test_spec_errors;
    Alcotest.test_case "transport: bit-identical under one seed" `Quick
      test_transport_deterministic;
    Alcotest.test_case "transport: zero-fault is silent and lossless" `Quick
      test_zero_fault_silent;
    Alcotest.test_case "synchronizer: masks covered loss rates" `Quick
      test_masking;
    Alcotest.test_case "degradation: beyond-model runs fail loudly" `Quick
      test_beyond_model;
    Alcotest.test_case "transport: stalls black out their process" `Quick
      test_stall_blackout;
    Alcotest.test_case "transport: dup/delay traced but delivered" `Quick
      test_dup_delay_events;
    Alcotest.test_case "degradation: greedy cover attribution" `Quick
      test_greedy_cover;
  ]
  @ List.map
      (fun entry ->
        Alcotest.test_case
          (Printf.sprintf "%s: zero-fault link is byte-invisible"
             entry.Harness.Registry.id)
          `Quick
          (test_zero_fault_identity entry))
      Harness.Registry.all
