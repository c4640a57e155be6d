(* Tests for the structured tracing layer: the JSONL event codec,
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

let test_json_codec () =
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

let test_file_roundtrip () =
  let _, events = traced_run ~adversary:(omission_adversary ()) () in
  let path = Filename.temp_file "trace" ".trace.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Trace.Sink.file ~path in
      List.iter (Trace.Sink.emit sink) events;
      Trace.Sink.close sink;
      let back = Trace.File.read path in
      Alcotest.(check bool)
        "jsonl file roundtrip" true
        (List.length back = List.length events
        && List.for_all2 Trace.Event.equal events back))

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

(* One of each of the 16 constructors, with the int extremes and the
   [None]s a column store must keep apart from [Some]. *)
let every_event =
  Trace.Event.
    [
      Round_start { round = 1 };
      Send { round = 1; src = 0; dst = 1; bits = 3; hint = None };
      Send { round = 1; src = 2; dst = 3; bits = max_int; hint = Some min_int };
      Send { round = 2; src = min_int; dst = max_int; bits = 1; hint = Some max_int };
      Send { round = 2; src = 4; dst = 5; bits = 2; hint = Some 0 };
      Corrupt { round = 2; pid = 4 };
      Omit { round = 2; src = 4; dst = 5 };
      Deliver { round = 2; src = 5; dst = 4 };
      Coin { round = 2; pid = 1; calls = 2; bits = 64 };
      Phase { round = 3; pid = 1; operative = true; candidate = None };
      Phase { round = 3; pid = 2; operative = false; candidate = Some 1 };
      Decide { round = 3; pid = 1; value = 0 };
      Round_end
        { round = 3; messages = 9; bits = 27; omitted = 1; rand_calls = 2; rand_bits = 64 };
      Drop { round = 3; src = 1; dst = 2; attempt = 1 };
      Dup { round = 3; src = 1; dst = 2; copies = 2 };
      Delay { round = 3; src = 1; dst = 2; slots = 3 };
      Retransmit { round = 3; src = 1; dst = 2; attempt = 2; backoff = 4 };
      Ack { round = 3; src = 2; dst = 1; attempt = 2 };
      Degrade { round = 3; src = 1; dst = 2; attempts = 5 };
      Cache_hit { key = "0123456789abcdef" };
    ]

(* [e] through [sink]'s field-wise entry point when it has one. *)
let field_wise sink (e : Trace.Event.t) =
  match e with
  | Send { round; src; dst; bits; hint } ->
      Trace.Sink.send sink ~round ~src ~dst ~bits ~hint
  | Omit { round; src; dst } -> Trace.Sink.omit sink ~round ~src ~dst
  | Deliver { round; src; dst } -> Trace.Sink.deliver sink ~round ~src ~dst
  | e -> Trace.Sink.emit sink e

(* [every_event]'s lines, byte for byte: the trace format is frozen (golden
   digests pin it only for the events real runs emit), key order
   included, which no roundtrip can see. *)
let every_event_json =
  [
    {|{"ev":"round-start","round":1}|};
    {|{"ev":"send","round":1,"src":0,"dst":1,"bits":3,"hint":null}|};
    {|{"ev":"send","round":1,"src":2,"dst":3,"bits":4611686018427387903,"hint":-4611686018427387904}|};
    {|{"ev":"send","round":2,"src":-4611686018427387904,"dst":4611686018427387903,"bits":1,"hint":4611686018427387903}|};
    {|{"ev":"send","round":2,"src":4,"dst":5,"bits":2,"hint":0}|};
    {|{"ev":"corrupt","round":2,"pid":4}|};
    {|{"ev":"omit","round":2,"src":4,"dst":5}|};
    {|{"ev":"deliver","round":2,"src":5,"dst":4}|};
    {|{"ev":"coin","round":2,"pid":1,"calls":2,"bits":64}|};
    {|{"ev":"phase","round":3,"pid":1,"operative":true,"candidate":null}|};
    {|{"ev":"phase","round":3,"pid":2,"operative":false,"candidate":1}|};
    {|{"ev":"decide","round":3,"pid":1,"value":0}|};
    {|{"ev":"round-end","round":3,"messages":9,"bits":27,"omitted":1,"rand_calls":2,"rand_bits":64}|};
    {|{"ev":"drop","round":3,"src":1,"dst":2,"attempt":1}|};
    {|{"ev":"dup","round":3,"src":1,"dst":2,"copies":2}|};
    {|{"ev":"delay","round":3,"src":1,"dst":2,"slots":3}|};
    {|{"ev":"retransmit","round":3,"src":1,"dst":2,"attempt":2,"backoff":4}|};
    {|{"ev":"ack","round":3,"src":2,"dst":1,"attempt":2}|};
    {|{"ev":"degrade","round":3,"src":1,"dst":2,"attempts":5}|};
    {|{"ev":"cache-hit","key":"0123456789abcdef"}|};
  ]

let test_event_bytes_frozen () =
  Alcotest.(check (list string))
    "to_json" every_event_json
    (List.map Trace.Event.to_json every_event)

(* Every constructor survives the codec: through [to_json]/[of_json], and
   through a trace file written whole or field-wise and read back. *)
let test_every_event_roundtrip () =
  List.iter
    (fun e ->
      match Trace.Event.of_json (Trace.Event.to_json e) with
      | Some e' when Trace.Event.equal e e' -> ()
      | _ -> Alcotest.failf "json roundtrip changed %s" (Trace.Event.to_json e))
    every_event;
  List.iter
    (fun (how, emit) ->
      let path = Filename.temp_file "every" ".trace.jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let sink = Trace.Sink.file ~path in
          List.iter (emit sink) every_event;
          Trace.Sink.close sink;
          Alcotest.(check string) (how ^ ": file bytes")
            (String.concat "" (List.map (fun l -> l ^ "\n") every_event_json))
            (In_channel.with_open_bin path In_channel.input_all);
          Alcotest.(check bool) (how ^ ": read back") true
            (List.equal Trace.Event.equal every_event (Trace.File.read path))))
    [ ("whole", Trace.Sink.emit); ("field-wise", field_wise) ]

let test_ring_bounds () =
  let ring = Trace.Ring.create ~capacity:4 in
  for r = 1 to 10 do
    Trace.Ring.add ring (ev_round r)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.Ring.length ring);
  Alcotest.(check bool) "keeps newest, oldest first" true
    (List.for_all2 Trace.Event.equal (Trace.Ring.to_list ring)
       [ ev_round 7; ev_round 8; ev_round 9; ev_round 10 ]);
  (* every constructor comes back equal, message-level ones from the int
     columns, whether it went in whole or field-wise, across a wrap *)
  let expect_last cap got =
    let all = every_event @ every_event in
    let want = List.filteri (fun i _ -> i >= List.length all - cap) all in
    Alcotest.(check int) (Printf.sprintf "capacity %d: length" cap)
      (List.length want) (List.length got);
    List.iter2
      (fun w g ->
        if not (Trace.Event.equal w g) then
          Alcotest.failf "capacity %d: %s came back as %s" cap
            (Trace.Event.to_json w) (Trace.Event.to_json g))
      want got
  in
  List.iter
    (fun cap ->
      let ring = Trace.Ring.create ~capacity:cap in
      List.iter (Trace.Ring.add ring) (every_event @ every_event);
      expect_last cap (Trace.Ring.to_list ring);
      let tail = Trace.Tail.create ~capacity:cap ~rounds:100 () in
      List.iter (field_wise (Trace.Tail.sink tail)) (every_event @ every_event);
      expect_last cap (Trace.Tail.events tail))
    [ 1; 5; List.length every_event; List.length every_event + 3; 64 ]

(* Runs against their expansion: a ring (and a tail over one) fed
   boxed events, single message events and runs must hold what a ring
   fed each run's events one by one, through a [Sink.make] wrapper,
   holds; and both hold the newest [capacity] events of the stream.
   Runs have random bounds, skips (inside, at the ends and outside the
   range), directions and lengths up to several times the capacity, so
   eviction cuts runs at every offset, and a cut run of [Send]s can fall
   to one event. *)
type ring_op =
  | Boxed of int
  | One of Trace.Event.t
  | Sends of int * int * int * int * int * bool * int * int option
  | Fates of int * int * int * int * int * bool * bool

let ring_op =
  QCheck.Gen.(
    let run =
      map3
        (fun (round, src) (lo, span) (skip, desc) ->
          (round, src, lo, lo + span - 1, lo + skip, desc))
        (pair (int_range 1 6) (int_range 0 9))
        (pair (int_range 0 20) (int_range 0 90))
        (pair (int_range (-2) 92) bool)
    in
    frequency
      [
        (2, map (fun r -> Boxed r) (int_range 1 6));
        ( 2,
          map3
            (fun round (src, dst) kind ->
              One
                (match kind with
                | 0 -> Trace.Event.Send { round; src; dst; bits = 3; hint = None }
                | 1 -> Send { round; src; dst; bits = 5; hint = Some dst }
                | 2 -> Omit { round; src; dst }
                | _ -> Deliver { round; src; dst }))
            (int_range 1 6)
            (pair (int_range 0 9) (int_range 0 9))
            (int_range 0 3) );
        ( 3,
          map2
            (fun (round, src, lo, hi, skip, desc) hint ->
              Sends (round, src, lo, hi, skip, desc, 1 + src, hint))
            run
            (opt (int_range (-3) 3)) );
        ( 3,
          map2
            (fun (round, src, lo, hi, skip, desc) omitted ->
              Fates (round, src, lo, hi, skip, desc, omitted))
            run bool );
      ])

let show_ring_op = function
  | Boxed r -> Printf.sprintf "boxed(round %d)" r
  | One e -> Trace.Event.to_json e
  | Sends (round, src, lo, hi, skip, desc, bits, hint) ->
      Printf.sprintf "sends(r%d s%d %d..%d skip %d desc %b bits %d hint %s)"
        round src lo hi skip desc bits
        (match hint with Some h -> string_of_int h | None -> "-")
  | Fates (round, src, lo, hi, skip, desc, omitted) ->
      Printf.sprintf "fates(r%d s%d %d..%d skip %d desc %b omitted %b)" round
        src lo hi skip desc omitted

let feed sink = function
  | Boxed round -> Trace.Sink.emit sink (Round_start { round })
  | One e -> field_wise sink e
  | Sends (round, src, lo, hi, skip, desc, bits, hint) ->
      Trace.Sink.sends sink ~round ~src ~lo ~hi ~skip ~desc ~bits ~hint
  | Fates (round, src, lo, hi, skip, desc, omitted) ->
      Trace.Sink.fates sink ~round ~src ~lo ~hi ~skip ~desc ~omitted

(* [sink] behind a wrapper that sees (and forwards) one event at a time *)
let expanded sink =
  Trace.Sink.make ~emit:(Trace.Sink.emit sink) ~close:(fun () -> ())

let qcheck_ring_runs =
  QCheck.Test.make ~name:"ring fed by runs = ring fed per event" ~count:400
    (QCheck.make
       ~print:(fun (cap, rounds, ops) ->
         Printf.sprintf "capacity %d, rounds %d: %s" cap rounds
           (String.concat "; " (List.map show_ring_op ops)))
       QCheck.Gen.(
         triple (int_range 1 64) (int_range 1 4) (list_size (int_range 0 30) ring_op)))
    (fun (capacity, rounds, ops) ->
      let by_runs = Trace.Ring.create ~capacity
      and by_events = Trace.Ring.create ~capacity in
      let tail = Trace.Tail.create ~capacity ~rounds ()
      and tail' = Trace.Tail.create ~capacity ~rounds () in
      let memory, events = Trace.Sink.memory () in
      List.iter
        (fun op ->
          feed (Trace.Ring.sink by_runs) op;
          feed (expanded (Trace.Ring.sink by_events)) op;
          feed (Trace.Tail.sink tail) op;
          feed (expanded (Trace.Tail.sink tail')) op;
          feed memory op)
        ops;
      let all = events () in
      let cut = List.length all - capacity in
      let newest = List.filteri (fun i _ -> i >= cut) all in
      let json = List.map Trace.Event.to_json in
      json (Trace.Ring.to_list by_runs) = json (Trace.Ring.to_list by_events)
      && json (Trace.Ring.to_list by_runs) = json newest
      && Trace.Ring.length by_runs = Trace.Ring.length by_events
      && Trace.Ring.length by_runs = List.length newest
      && Trace.Tail.lines tail = Trace.Tail.lines tail')

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
    (Supervise.map
       (fun () ->
         raise
           (Supervise.Breach
              {
                kind = Supervise.Crashed { exn_text = "boom"; backtrace = "" };
                trace = lines;
                replay = None;
              }))
       [| () |]).(0)
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

let test_crashed_run_trace_file () =
  (* a run whose protocol raises mid-run still leaves a whole trace file:
     every event emitted before the crash, and nothing else *)
  let path = Filename.temp_file "crashed" ".trace.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let memory, events = Trace.Sink.memory () in
      let sink = Trace.Sink.tee (Trace.Sink.file ~path) memory in
      (match
         Supervise.run ~trace:sink ~property:Consensus
           (Supervise.Chaos.protocol ~crash_round:3 echo)
           (cfg ()) ~adversary:(omission_adversary ()) ~inputs:(inputs 8)
       with
      | Error (Supervise.Crashed _, _) -> ()
      | _ -> Alcotest.fail "expected Error (Crashed _)");
      Trace.Sink.close sink;
      Trace.Sink.close sink;
      Alcotest.(check bool) "events up to the crash" true
        (List.exists (fun e -> Trace.Event.round e = 2) (events ()));
      Alcotest.(check bool) "file holds the emitted events" true
        (List.equal Trace.Event.equal (events ()) (Trace.File.read path)))

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
  let r = Conformance.Runner.run_entry ~trace:(Trace.Tail.sink tail) entry scenario in
  Alcotest.(check bool) "the run violates a property" false
    (r.Conformance.Runner.violations = []);
  Alcotest.(check bool) "tail is non-empty" true (Trace.Tail.lines tail <> [])

(* --- a run's observer sinks --- *)

let test_observers () =
  let none = Trace.Observers.create () in
  Alcotest.(check bool) "nothing requested, no sink" true
    (Trace.Observers.sink none = None);
  Alcotest.(check bool) "no tail, no lines" true
    (Trace.Observers.tail_lines none = []);
  let path = Filename.temp_file "observers" ".trace.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs =
        Trace.Observers.create ~tail:2 ~metrics:true ~clock:(fun () -> 0.)
          ~file:path ()
      in
      let o =
        Sim.Engine.run ?trace:(Trace.Observers.sink obs) echo (cfg ())
          ~adversary:(omission_adversary ()) ~inputs:(inputs 8)
      in
      Trace.Observers.close obs;
      Trace.Observers.close obs;
      let _, events = traced_run ~adversary:(omission_adversary ()) () in
      Alcotest.(check int) "file holds the full trace" (List.length events)
        (List.length (Trace.File.read path));
      let last = List.rev (List.map Trace.Event.to_json events) in
      let tail = Trace.Observers.tail_lines obs in
      Alcotest.(check bool) "tail is the trace's end" true
        (tail <> []
        && List.rev tail
           = List.filteri (fun i _ -> i < List.length tail) last);
      match Trace.Observers.summary obs with
      | None -> Alcotest.fail "metrics requested, no summary"
      | Some m ->
          Alcotest.(check int) "metrics messages" o.Sim.Engine.messages_sent
            m.Trace.Metrics.messages)

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
      test_json_codec;
    Alcotest.test_case "JSONL trace files roundtrip" `Quick
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
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x7a11 |])
      qcheck_ring_runs;
    Alcotest.test_case "diff: identical traces" `Quick test_diff_identical;
    Alcotest.test_case "diff: pinpoints the first mutated event" `Quick
      test_diff_mutated;
    Alcotest.test_case "diff: detects a truncated trace" `Quick
      test_diff_prefix;
    Alcotest.test_case "quarantine records embed the trace tail" `Quick
      test_breach_traced_in_failure_record;
    Alcotest.test_case "a crashed run's trace file is whole" `Quick
      test_crashed_run_trace_file;
    Alcotest.test_case "violating run yields a counterexample tail" `Quick
      test_counterexample_trace_tail;
    Alcotest.test_case "no sink, no events (off path)" `Quick
      test_off_path_no_sink_calls;
    Alcotest.test_case "observers: tail, metrics and file teed" `Quick
      test_observers;
    Alcotest.test_case "every event roundtrips: json, file, field-wise"
      `Quick test_every_event_roundtrip;
    Alcotest.test_case "event bytes are frozen" `Quick test_event_bytes_frozen;
    Alcotest.test_case "stable collector is wall-clock free" `Quick
      test_stable_collector_deterministic;
  ]
