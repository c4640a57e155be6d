(* Tests for the structured tracing layer: event codecs (JSONL and binary),
   ring/tail capture bounds, metrics-vs-outcome agreement, first-divergence
   diff, determinism of the event stream at any executor width, and the
   quarantine path that ships a trace tail inside the failure record. *)

let cfg ?(n = 8) ?(seed = 1) ?(max_rounds = 10) () =
  Sim.Config.make ~n ~t_max:2 ~seed ~max_rounds ()

let echo = (module Test_engine.Echo : Sim.Protocol_intf.BUFFERED)
let inputs n = Array.init n (fun i -> i mod 2)

let traced_run ?(n = 8) ?(seed = 1) ?(adversary = Sim.Adversary_intf.none) ()
    =
  let sink, events = Trace.Sink.memory () in
  let o =
    Sim.Engine.run ~trace:sink echo (cfg ~n ~seed ()) ~adversary
      ~inputs:(inputs n)
  in
  (o, events ())

let omission_adversary () = Adversary.random_omission ~p_omit:0.5

(* --- codecs --- *)

let test_json_roundtrip () =
  let _, events = traced_run ~adversary:(omission_adversary ()) () in
  Alcotest.(check bool) "trace is non-trivial" true (List.length events > 50);
  List.iter
    (fun e ->
      match Trace.Event.of_json (Trace.Event.to_json e) with
      | Some e' ->
          if not (Trace.Event.equal e e') then
            Alcotest.failf "json roundtrip changed %s" (Trace.Event.to_json e)
      | None ->
          Alcotest.failf "json roundtrip lost %s" (Trace.Event.to_json e))
    events

let test_binary_roundtrip () =
  let _, events = traced_run ~adversary:(omission_adversary ()) () in
  let buf = Buffer.create 1024 in
  List.iter (Trace.Event.to_binary buf) events;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  let decoded = ref [] in
  while !pos < String.length s do
    decoded := Trace.Event.of_binary s pos :: !decoded
  done;
  let decoded = List.rev !decoded in
  Alcotest.(check int) "event count" (List.length events)
    (List.length decoded);
  List.iter2
    (fun a b ->
      if not (Trace.Event.equal a b) then
        Alcotest.failf "binary roundtrip changed %s" (Trace.Event.to_json a))
    events decoded

let test_binary_truncated () =
  let _, events = traced_run () in
  let buf = Buffer.create 1024 in
  List.iter (Trace.Event.to_binary buf) events;
  let s = Buffer.contents buf in
  let cut = String.sub s 0 (String.length s - 1) in
  let pos = ref 0 in
  Alcotest.check_raises "short read" Trace.Event.Truncated (fun () ->
      while !pos < String.length cut do
        ignore (Trace.Event.of_binary cut pos)
      done)

let test_file_roundtrip () =
  let _, events = traced_run ~adversary:(omission_adversary ()) () in
  let check format =
    let path = Filename.temp_file "trace" ("." ^ Trace.format_extension format) in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.File.write ~path ~format events;
        (* File.read auto-detects the format from the content *)
        let back = Trace.File.read path in
        Alcotest.(check bool)
          (Trace.format_to_string format ^ " file roundtrip")
          true
          (List.length back = List.length events
          && List.for_all2 Trace.Event.equal events back))
  in
  check Trace.Jsonl;
  check Trace.Binary

let test_file_corrupt () =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"ev\":\"no-such-event\"}\n";
      close_out oc;
      match Trace.File.read path with
      | _ -> Alcotest.fail "expected File.Corrupt"
      | exception Trace.File.Corrupt _ -> ())

(* --- engine stream semantics --- *)

let test_traced_outcome_unchanged () =
  (* the sink is an observer: outcome counters are bit-identical with and
     without it *)
  let adversary = omission_adversary () in
  let o_plain =
    Sim.Engine.run echo (cfg ()) ~adversary:(omission_adversary ())
      ~inputs:(inputs 8)
  in
  let o_traced, _ = traced_run ~adversary () in
  Alcotest.(check bool) "outcomes identical" true (o_plain = o_traced)

let test_stream_deterministic_across_jobs () =
  (* the same seeds traced through a 1-wide and a 4-wide pool produce
     byte-identical JSONL streams *)
  let seeds = [| 1; 2; 3; 4; 5; 6 |] in
  let trace_of seed =
    let _, events = traced_run ~seed ~adversary:(omission_adversary ()) () in
    String.concat "\n" (List.map Trace.Event.to_json events)
  in
  let serial = Array.map trace_of seeds in
  let wide = Exec.map ~jobs:4 trace_of seeds in
  Array.iteri
    (fun i s ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d byte-identical" seeds.(i))
        s wide.(i))
    serial

let test_send_omit_deliver_accounting () =
  (* every Send is resolved by exactly one Omit or Deliver, and the totals
     match the outcome's counters *)
  let o, events = traced_run ~adversary:(omission_adversary ()) () in
  let sends = ref 0 and omits = ref 0 and delivers = ref 0 in
  List.iter
    (function
      | Trace.Event.Send _ -> incr sends
      | Trace.Event.Omit _ -> incr omits
      | Trace.Event.Deliver _ -> incr delivers
      | _ -> ())
    events;
  Alcotest.(check int) "sends = outcome messages" o.Sim.Engine.messages_sent
    !sends;
  Alcotest.(check int) "omits = outcome omitted" o.messages_omitted !omits;
  Alcotest.(check int) "send = omit + deliver" !sends (!omits + !delivers)

let test_metrics_match_outcome () =
  let o, events = traced_run ~adversary:(omission_adversary ()) () in
  let m = Trace.Metrics.of_events events in
  Alcotest.(check int) "rounds" o.Sim.Engine.rounds_total m.Trace.Metrics.rounds;
  Alcotest.(check int) "messages" o.messages_sent m.messages;
  Alcotest.(check int) "bits" o.bits_sent m.bits;
  Alcotest.(check int) "omitted" o.messages_omitted m.omitted;
  Alcotest.(check int) "coin calls" o.rand_calls m.coin_calls;
  Alcotest.(check int) "coin bits" o.rand_bits m.coin_bits;
  Alcotest.(check int) "corruptions" o.faults_used m.corruptions;
  Alcotest.(check int) "per-round rows" m.rounds
    (List.length m.per_round);
  (* per-round deltas sum to the totals *)
  let sum f = List.fold_left (fun a r -> a + f r) 0 m.per_round in
  Alcotest.(check int) "round messages sum" m.messages
    (sum (fun r -> r.Trace.Metrics.messages));
  Alcotest.(check int) "round bits sum" m.bits
    (sum (fun r -> r.Trace.Metrics.bits))

let test_decides_once_per_process () =
  let o, events = traced_run () in
  let n = Array.length o.Sim.Engine.decisions in
  let decided = Array.make n 0 in
  List.iter
    (function
      | Trace.Event.Decide { pid; value; _ } ->
          decided.(pid) <- decided.(pid) + 1;
          (match o.decisions.(pid) with
          | Some v -> Alcotest.(check int) "decide value" v value
          | None -> Alcotest.fail "Decide event for undecided process")
      | _ -> ())
    events;
  Array.iteri
    (fun pid k ->
      let expect = if o.decisions.(pid) = None then 0 else 1 in
      Alcotest.(check int) (Printf.sprintf "pid %d decides once" pid) expect k)
    decided

(* --- ring / tail bounds --- *)

let ev_round r = Trace.Event.Round_start { round = r }

let test_ring_bounds () =
  let ring = Trace.Ring.create ~capacity:4 in
  for r = 1 to 10 do
    Trace.Ring.add ring (ev_round r)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.Ring.length ring);
  Alcotest.(check bool) "keeps newest, oldest first" true
    (List.for_all2 Trace.Event.equal (Trace.Ring.to_list ring)
       [ ev_round 7; ev_round 8; ev_round 9; ev_round 10 ])

let test_tail_last_rounds () =
  let _, events = traced_run ~adversary:(omission_adversary ()) () in
  let tail = Trace.Tail.create ~rounds:2 () in
  let sink = Trace.Tail.sink tail in
  List.iter (Trace.Sink.emit sink) events;
  let kept = Trace.Tail.events tail in
  Alcotest.(check bool) "non-empty" true (kept <> []);
  let rounds =
    List.sort_uniq compare (List.map Trace.Event.round kept)
  in
  let last = List.fold_left max 0 (List.map Trace.Event.round events) in
  Alcotest.(check (list int)) "exactly the last 2 rounds"
    [ last - 1; last ] rounds;
  (* and the lines render back to the same events *)
  List.iter2
    (fun e line ->
      match Trace.Event.of_json line with
      | Some e' when Trace.Event.equal e e' -> ()
      | _ -> Alcotest.fail "tail line does not parse back")
    kept (Trace.Tail.lines tail)

(* --- diff --- *)

let test_diff_identical () =
  let _, events = traced_run () in
  match Trace.Diff.events events events with
  | Trace.Diff.Identical n ->
      Alcotest.(check int) "count" (List.length events) n
  | Trace.Diff.Diverged _ -> Alcotest.fail "expected Identical"

let test_diff_mutated () =
  let _, events = traced_run () in
  let mutated =
    List.mapi
      (fun i e ->
        if i = 5 then Trace.Event.Corrupt { round = 99; pid = 0 } else e)
      events
  in
  match Trace.Diff.events events mutated with
  | Trace.Diff.Diverged d ->
      Alcotest.(check int) "first divergence index" 5 d.Trace.Diff.index;
      Alcotest.(check bool) "both sides present" true
        (d.left <> None && d.right <> None)
  | Trace.Diff.Identical _ -> Alcotest.fail "expected Diverged"

let test_diff_prefix () =
  let _, events = traced_run () in
  let shorter = List.filteri (fun i _ -> i < 7) events in
  match Trace.Diff.events events shorter with
  | Trace.Diff.Diverged d ->
      Alcotest.(check int) "diverges where the prefix ends" 7 d.Trace.Diff.index;
      Alcotest.(check bool) "right side ended" true (d.right = None)
  | Trace.Diff.Identical _ -> Alcotest.fail "expected Diverged"

(* --- quarantine integration: failures ship their trace tail --- *)

let test_breach_traced_in_failure_record () =
  let lines = [ {|{"ev":"round-start","round":7}|} ] in
  match
    Supervise.protect (fun () ->
        raise
          (Supervise.Breach_traced
             ( Supervise.Crashed { exn_text = "boom"; backtrace = "" },
               lines )))
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      Alcotest.(check (list string)) "tail stored" lines f.Supervise.trace;
      let js = Supervise.failure_json f in
      Alcotest.(check bool) "record embeds the tail" true
        (let needle = {|"trace":[{"ev":"round-start","round":7}]|} in
         let nl = String.length needle and hl = String.length js in
         let rec at i =
           i + nl <= hl && (String.sub js i nl = needle || at (i + 1))
         in
         at 0)

let test_counterexample_trace_tail () =
  (* the fuzz failure path: re-run a violating protocol with a tail sink
     and get a non-empty last-K-rounds tail for the quarantine record *)
  let disagree : Sim.Protocol_intf.builder =
    (module struct
      let name = "disagree"
      let build _ = (module Test_harness.Selfish : Sim.Protocol_intf.BUFFERED)
      let rounds_needed _ = 3
    end)
  in
  let entry =
    Harness.Registry.make ~model:Omission ~kind:Consensus
      ~max_t:(fun n -> n / 4) ~min_n:2 disagree
  in
  let scenario = Harness.Scenario.of_string "8/2/3/01010101/idle" in
  let tail = Trace.Tail.create ~rounds:3 () in
  let r = Harness.Runner.run_entry ~trace:(Trace.Tail.sink tail) entry scenario in
  Alcotest.(check bool) "the run violates a property" false
    (r.Harness.Runner.violations = []);
  Alcotest.(check bool) "tail is non-empty" true (Trace.Tail.lines tail <> [])

(* --- net events --- *)

(* The transport's link events (emitted by lib/net, never by the engine)
   must survive both codecs like every other event. *)
let net_events =
  [
    Trace.Event.Drop { round = 3; src = 1; dst = 2; attempt = 1 };
    Trace.Event.Dup { round = 3; src = 0; dst = 7; copies = 2 };
    Trace.Event.Delay { round = 4; src = 5; dst = 6; slots = 3 };
    Trace.Event.Retransmit { round = 4; src = 1; dst = 2; attempt = 2; backoff = 1 };
    Trace.Event.Retransmit { round = 9; src = 2; dst = 1; attempt = 5; backoff = 8 };
    Trace.Event.Ack { round = 9; src = 2; dst = 1; attempt = 5 };
    Trace.Event.Degrade { round = 12; src = 3; dst = 4; attempts = 9 };
  ]

let test_net_event_json () =
  List.iter
    (fun e ->
      match Trace.Event.of_json (Trace.Event.to_json e) with
      | Some e' ->
          if not (Trace.Event.equal e e') then
            Alcotest.failf "json roundtrip changed %s" (Trace.Event.to_json e)
      | None ->
          Alcotest.failf "json roundtrip lost %s" (Trace.Event.to_json e))
    net_events

let test_net_event_binary () =
  let buf = Buffer.create 256 in
  List.iter (Trace.Event.to_binary buf) net_events;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  List.iter
    (fun e ->
      let e' = Trace.Event.of_binary s pos in
      if not (Trace.Event.equal e e') then
        Alcotest.failf "binary roundtrip changed %s" (Trace.Event.to_json e))
    net_events;
  Alcotest.(check int) "all bytes consumed" (String.length s) !pos

(* Regression for the --stable-json path: a metrics collector on a constant
   clock must fold the same run into byte-identical summaries — no
   Unix.gettimeofday can leak into stable output. *)
let test_stable_collector_deterministic () =
  let collect () =
    let sink, summary = Trace.Metrics.collector ~clock:(fun () -> 0.) () in
    let _ =
      Sim.Engine.run ~trace:sink echo (cfg ())
        ~adversary:(omission_adversary ()) ~inputs:(inputs 8)
    in
    summary ()
  in
  let a = collect () and b = collect () in
  Alcotest.(check bool) "summaries identical" true (a = b);
  Alcotest.(check (float 0.)) "no wall clock in stable summary" 0.
    a.Trace.Metrics.wall_total_s;
  List.iter
    (fun (r : Trace.Metrics.per_round) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "round %d wall_s" r.Trace.Metrics.round)
        0. r.Trace.Metrics.wall_s)
    a.Trace.Metrics.per_round

(* --- off path --- *)

let test_off_path_no_sink_calls () =
  (* when no tracer is passed the engine must not emit anywhere — a
     poisoned global-ish sink proves no code path calls it *)
  let hits = ref 0 in
  let poison =
    Trace.Sink.make ~emit:(fun _ -> incr hits) ~close:(fun () -> ())
  in
  ignore poison;
  let _ = Sim.Engine.run echo (cfg ()) ~adversary:Sim.Adversary_intf.none
      ~inputs:(inputs 8)
  in
  Alcotest.(check int) "no events emitted" 0 !hits

let suite =
  [
    Alcotest.test_case "json codec roundtrips a real trace" `Quick
      test_json_roundtrip;
    Alcotest.test_case "binary codec roundtrips a real trace" `Quick
      test_binary_roundtrip;
    Alcotest.test_case "binary decode detects truncation" `Quick
      test_binary_truncated;
    Alcotest.test_case "trace files roundtrip in both formats" `Quick
      test_file_roundtrip;
    Alcotest.test_case "corrupt trace file raises" `Quick test_file_corrupt;
    Alcotest.test_case "tracing does not change the outcome" `Quick
      test_traced_outcome_unchanged;
    Alcotest.test_case "traces are byte-identical at any jobs width" `Quick
      test_stream_deterministic_across_jobs;
    Alcotest.test_case "send/omit/deliver accounting matches outcome" `Quick
      test_send_omit_deliver_accounting;
    Alcotest.test_case "metrics summary matches outcome counters" `Quick
      test_metrics_match_outcome;
    Alcotest.test_case "each deciding process emits one Decide" `Quick
      test_decides_once_per_process;
    Alcotest.test_case "ring keeps the newest events, bounded" `Quick
      test_ring_bounds;
    Alcotest.test_case "tail keeps exactly the last K rounds" `Quick
      test_tail_last_rounds;
    Alcotest.test_case "diff: identical traces" `Quick test_diff_identical;
    Alcotest.test_case "diff: pinpoints the first mutated event" `Quick
      test_diff_mutated;
    Alcotest.test_case "diff: detects a truncated trace" `Quick
      test_diff_prefix;
    Alcotest.test_case "quarantine records embed the trace tail" `Quick
      test_breach_traced_in_failure_record;
    Alcotest.test_case "violating run yields a counterexample tail" `Quick
      test_counterexample_trace_tail;
    Alcotest.test_case "no sink, no events (off path)" `Quick
      test_off_path_no_sink_calls;
    Alcotest.test_case "net link events roundtrip as json" `Quick
      test_net_event_json;
    Alcotest.test_case "net link events roundtrip as binary" `Quick
      test_net_event_binary;
    Alcotest.test_case "stable collector is wall-clock free" `Quick
      test_stable_collector_deterministic;
  ]
