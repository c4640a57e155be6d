(* Property-based tests for the fuzzing harness: the strategy codec, the
   crash-compatible sub-algebra, compiled-strategy legality, differential
   conformance across the whole registry, and the failure minimiser. All
   QCheck tests run from a fixed random state so CI is deterministic. *)

let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xace5 |]) t

(* --- codec --- *)

let qcheck_strategy_roundtrip =
  QCheck.Test.make ~name:"strategy codec roundtrips" ~count:300
    (Harness.Qgen.strategy ~n:16 ())
    (fun s -> Adversary.Strategy.(of_string (to_string s)) = s)

let qcheck_scenario_roundtrip =
  QCheck.Test.make ~name:"scenario codec roundtrips" ~count:200
    (Harness.Qgen.scenario ())
    (fun s -> Harness.Scenario.(of_string (to_string s)) = s)

let test_codec_rejects_garbage () =
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (try
           ignore (Harness.Scenario.of_string bad);
           false
         with Harness.Scenario.Parse_error _ -> true))
    [
      "";
      "5/1/1/00011";
      "5/1/1/0001/idle";
      "5/1/1/00012/idle";
      "5/9/1/00011/idle";
      "5/1/1/00011/strike(p0)";
      "5/1/1/00011/blast(p0,out)";
    ]

(* --- sub-algebra and shrinking --- *)

let qcheck_crash_subalgebra =
  QCheck.Test.make ~name:"crash-mode generator stays crash-compatible"
    ~count:300
    (Harness.Qgen.scenario ~crash_bias:1.0 ())
    (fun s -> Adversary.Strategy.crash_compatible s.Harness.Scenario.strategy)

let qcheck_strategy_shrink_decreases =
  QCheck.Test.make ~name:"strategy shrink strictly decreases size" ~count:300
    (Harness.Qgen.strategy ~n:16 ())
    (fun s ->
      List.for_all
        (fun c -> Adversary.Strategy.size c < Adversary.Strategy.size s)
        (Adversary.Strategy.shrink s))

let test_crash_compatible_examples () =
  let check str expect =
    Alcotest.(check bool) str expect
      (Adversary.Strategy.crash_compatible (Adversary.Strategy.of_string str))
  in
  check "strike(low1,out)" true;
  check "strike(low1,all)" true;
  check "from(3,strike(p2,out))" true;
  check "strike(low1,in)" false;
  check "strike(low1,half)" false;
  check "strike(low1,to1)" false;
  check "until(5,strike(low1,out))" false;
  check "seq[strike(p0,out);idle]" false;
  check "again(strike(snd2,out))" true;
  check "strike(grp0,local)" false;
  check "again(strike(snd0,link0))" false

(* The generator never draws the three constructors only the named
   adversaries use (snd<v>, local, link<v>), so no property test reaches
   them: each round-trips through the codec here, and each shrink
   candidate is strictly smaller. *)
let test_named_constructors () =
  let open Adversary.Strategy in
  List.iter
    (fun str ->
      let s = of_string str in
      Alcotest.(check string) (str ^ " round-trips") str (to_string s);
      Alcotest.(check bool) (str ^ " re-parses") true
        (of_string (to_string s) = s);
      let candidates = shrink s in
      Alcotest.(check bool) (str ^ " shrinks") true (candidates <> []);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s -> %s is smaller" str (to_string c))
            true
            (size c < size s))
        candidates)
    [
      "strike(snd3,out)";
      "strike(low2,local)";
      "strike(p1,link7)";
      "strike(grp1,local)";
      "again(strike(snd0,link0))";
      "both(strike(snd12,in),from(2,strike(rnd1,link4)))";
    ]

(* --- compiled strategies: mask route = general route ---

   A compiled strategy states its omissions as per-sender masks, which the
   engine takes on its mask route; {!Adversary.pointwise} decodes the same
   masks message by message, putting the engine on its general route. On
   generated terms against every registered protocol the two traced runs
   must agree outcome for outcome and event for event. Both routes count
   omissions in the same delivery step, so each [Round_end] must also
   total exactly its round's [Omit] events. The untraced mask-route run
   walks without a sink, where table senders' receive-side masks ([in],
   [all], [local] strikes) are written with no event to compare: it must
   be legal too, and its outcome must be the traced run's. *)

let strategy_run ?trace entry ~n ~seed adversary =
  let cfg0 = Sim.Config.make ~n ~t_max:3 ~seed () in
  let cfg =
    {
      cfg0 with
      Sim.Config.max_rounds = Harness.Registry.rounds_bound entry cfg0;
    }
  in
  let inputs = Array.init n (fun i -> (i + seed) / (1 + (seed mod 3)) mod 2) in
  Sim.Engine.run ?trace (Harness.Registry.build entry cfg) cfg ~adversary
    ~inputs

let traced_strategy entry ~n ~seed adversary =
  let sink, events = Trace.Sink.memory () in
  let o = strategy_run ~trace:sink entry ~n ~seed adversary in
  (o, events ())

(* The untraced run's outcome, or the message of its [Illegal_plan]; the
   traced runs raise theirs out of the property. *)
let untraced_strategy entry ~n ~seed adversary =
  match strategy_run entry ~n ~seed adversary with
  | o -> Ok o
  | exception Sim.Engine.Illegal_plan msg -> Error msg

let omissions_counted events =
  fst
    (List.fold_left
       (fun (ok, omits) (e : Trace.Event.t) ->
         match e with
         | Omit _ -> (ok, omits + 1)
         | Round_end { omitted; _ } -> (ok && omitted = omits, 0)
         | _ -> (ok, omits))
       (true, 0) events)

let qcheck_mask_route_equals_pointwise =
  QCheck.Test.make ~name:"compiled strategy: mask route = pointwise"
    ~count:60
    QCheck.(
      triple (Harness.Qgen.strategy ~n:24 ()) (int_range 1 1000)
        (int_range 8 24))
    (fun (s, seed, n) ->
      let compiled () = Adversary.Strategy.compile s in
      List.for_all
        (fun entry ->
          n < entry.Harness.Registry.min_n
          ||
          let ((outcome, events) as masked) =
            traced_strategy entry ~n ~seed (compiled ())
          in
          masked
          = traced_strategy entry ~n ~seed (Adversary.pointwise (compiled ()))
          && omissions_counted events
          && untraced_strategy entry ~n ~seed (compiled ()) = Ok outcome)
        Harness.Registry.all)

(* --- differential conformance: the tentpole property ---

   Every registered protocol, on any generated scenario inside its fault
   model, satisfies its spec; every run (in model or not) satisfies the
   engine metric invariants; and no generated strategy ever produces an
   illegal plan. One property exercises all of it. *)

let qcheck_conformance =
  QCheck.Test.make ~name:"registry conforms on generated scenarios" ~count:40
    (Harness.Qgen.scenario ~max_n:24 ())
    (fun s ->
      let report = Conformance.Runner.run ~include_out_of_model:true s in
      match Conformance.Runner.report_violations report with
      | [] -> true
      | v :: _ ->
          QCheck.Test.fail_reportf "%a on %a" Conformance.Runner.pp_violation v
            Harness.Scenario.pp s)

(* The fuzz -> run --spec path: the spec the runner builds for an entry
   survives its own serialization, and executing the parsed spec, as
   [run --spec] does, gives the runner's outcome and, in model, its
   verdict. *)
let qcheck_runner_spec_replays =
  QCheck.Test.make ~name:"runner spec replays through run --spec" ~count:25
    (Harness.Qgen.scenario ~max_n:24 ())
    (fun s ->
      List.for_all
        (fun (entry : Harness.Registry.entry) ->
          s.Harness.Scenario.n < entry.min_n
          ||
          let r = Conformance.Runner.run_entry entry s in
          let line = Run_spec.to_string r.spec in
          match Run_spec.of_string line with
          | Error e -> QCheck.Test.fail_reportf "%s: %s" line e
          | Ok spec ->
              let outcome, verdict =
                match Run_spec.execute spec with
                | Ok (o, _) -> (Some o, None)
                | Error (Supervise.Violated { property; _ }, partial) ->
                    (Option.map fst partial, Some property)
                | Error (Supervise.Budget_exceeded { metric = "rounds"; _ }, partial) ->
                    (Option.map fst partial, Some "termination")
                | Error (kind, _) ->
                    QCheck.Test.fail_reportf "%s: %a" line
                      Supervise.pp_failure_kind kind
              in
              let expected =
                match r.violations with
                | v :: _ -> Some v.Conformance.Runner.property
                | [] -> None
              in
              if spec <> r.spec then
                QCheck.Test.fail_reportf "%s does not round-trip" line
              else if outcome <> r.outcome then
                QCheck.Test.fail_reportf "%s: outcome differs" line
              else if r.checked && verdict <> expected then
                QCheck.Test.fail_reportf "%s: verdict differs" line
              else true)
        Harness.Registry.all)

(* --- failure detection and minimisation ---

   A deliberately broken protocol — everyone decides its own input
   immediately — must be caught by the fuzzing loop, shrunk to a smaller
   scenario that still reproduces the same violation, and the printed
   replay command must reference the shrunk scenario. *)

module Selfish = struct
  type state = { input : int; mutable decision : int option }
  type msg = unit

  let name = "selfish"
  let init _cfg ~pid:_ ~input = { input; decision = None }

  let step_into _cfg st ~round ~inbox:_ ~rand:_ ~emit:_ ~emit_all:_ =
    if round = 1 then st.decision <- Some st.input;
    st

  let observe st =
    {
      Sim.View.candidate = Some st.input;
      operative = true;
      decided = st.decision;
    }

  let msg_bits () = 1
  let msg_hint () = None
end

let selfish_entry =
  Harness.Registry.make ~model:Omission ~kind:Consensus
    ~max_t:(fun n -> n / 4)
    ~min_n:2
    (module struct
      let name = "selfish"
      let build _ = (module Selfish : Sim.Protocol_intf.BUFFERED)
      let rounds_needed _ = 3
    end : Sim.Protocol_intf.BUILDER)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_broken_protocol_caught () =
  match Conformance.Fuzz.run ~protocols:[ selfish_entry ] ~count:50 ~seed:3 () with
  | Ok _ -> Alcotest.fail "fuzzer missed the broken protocol"
  | Error (f, _) ->
      Alcotest.(check string) "agreement violated" "agreement"
        f.Conformance.Fuzz.violation.property;
      Alcotest.(check bool) "shrunk is no larger" true
        (Harness.Scenario.measure f.shrunk
        <= Harness.Scenario.measure f.original);
      (* the shrunk scenario still reproduces the same violation *)
      let report = Conformance.Runner.run ~protocols:[ selfish_entry ] f.shrunk in
      Alcotest.(check bool) "shrunk reproduces" true
        (List.exists
           (fun v -> v.Conformance.Runner.property = "agreement")
           (Conformance.Runner.report_violations report));
      (* and the replay line is the shrunk scenario's run on the
         violating protocol *)
      Alcotest.(check string) "violating protocol" "selfish" f.entry.id;
      Alcotest.(check bool) "replay line is its run --spec" true
        (contains
           (Fmt.str "%a" Conformance.Fuzz.pp_failure f)
           (Run_spec.to_command
              (Conformance.Runner.spec selfish_entry f.shrunk)))

(* The counterexample's quarantine record has the shape of every other
   one (Supervise.failure_json), with the replay line and the trace tail.
   The soak's counterexample itself is pinned. *)
let test_counterexample_record () =
  match Conformance.Fuzz.run ~protocols:[ selfish_entry ] ~count:50 ~seed:3 () with
  | Ok _ -> Alcotest.fail "fuzzer missed the broken protocol"
  | Error (f, _) -> (
      Alcotest.(check string) "original"
        "35/8/257032/00000000000000000100000000000000000/strike(hold0x2,to1)"
        (Harness.Scenario.to_string f.Conformance.Fuzz.original);
      Alcotest.(check string) "shrunk" "18/0/1/000000000000000001/idle"
        (Harness.Scenario.to_string f.shrunk);
      Alcotest.(check int) "shrink steps" 20 f.shrink_steps;
      let dir = Filename.temp_dir "fuzz-quarantine" "" in
      let q, path = Conformance.Fuzz.quarantine ~tail_rounds:3 ~dir f in
      let events = Trace.File.read path in
      Sys.remove path;
      Sys.rmdir dir;
      Alcotest.(check string) "trace file name"
        "fuzz-counterexample.selfish.trace.jsonl" (Filename.basename path);
      (* the tail is the end of the full trace *)
      let tail = List.rev q.Supervise.trace in
      Alcotest.(check (list string)) "tail ends the trace file" tail
        (List.filteri
           (fun i _ -> i < List.length tail)
           (List.rev_map Trace.Event.to_json events));
      let json = Supervise.failure_json q in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("record has " ^ needle) true
            (contains json needle))
        [
          {|"failure":"violated"|};
          {|"property":"agreement"|};
          {|"label":"fuzz-counterexample/selfish"|};
          {|"replay":"dune exec bin/consensus_sim.exe -- run --spec 'p=selfish n=18 t=0 x=- seed=1 a=idle i=000000000000000001 wall=- rounds=3 |};
        ];
      match Jsonl.read json with
      | None -> Alcotest.fail "record does not parse"
      | Some fields ->
          Alcotest.(check (option string)) "kind" (Some "quarantine")
            (Jsonl.string fields "kind");
          Alcotest.(check (option int)) "soak index" (Some 3)
            (Jsonl.int fields "index");
          Alcotest.(check (option int)) "seed" (Some 257032)
            (Jsonl.int fields "seed");
          Alcotest.(check (option string)) "replay"
            (Some
               (Run_spec.to_command
                  (Conformance.Runner.spec selfish_entry f.shrunk)))
            (Jsonl.string fields "replay");
          Alcotest.(check bool) "non-empty trace tail" true
            (match List.assoc_opt "trace" fields with
            | Some (Jsonl.Raw r) -> r <> "[]"
            | _ -> false))

(* Fuzz.run's outcome is independent of the domain-pool width, failing or
   clean: same counterexample, shrink and stats. *)
let test_fuzz_jobs_invariant () =
  let outcome ~protocols ~count ~seed jobs =
    let counts (st : Conformance.Fuzz.stats) =
      [ st.scenarios; st.runs; st.checked; st.determinism_checks ]
    in
    match Conformance.Fuzz.run ~protocols ~count ~seed ~jobs () with
    | Ok st -> ([], counts st)
    | Error (f, st) ->
        ( [
            Harness.Scenario.to_string f.original;
            Harness.Scenario.to_string f.shrunk;
            f.violation.property;
            string_of_int f.shrink_steps;
          ],
          counts st )
  in
  let same name ~protocols ~count ~seed =
    let c1, s1 = outcome ~protocols ~count ~seed 1
    and c4, s4 = outcome ~protocols ~count ~seed 4 in
    Alcotest.(check (list string)) (name ^ ": counterexample") c1 c4;
    Alcotest.(check (list int)) (name ^ ": stats") s1 s4;
    c1
  in
  let failing =
    same "failing soak" ~protocols:[ selfish_entry ] ~count:50 ~seed:3
  in
  Alcotest.(check bool) "the failing soak fails" true (failing <> []);
  let clean =
    same "clean soak" ~protocols:Harness.Registry.all ~count:24 ~seed:11
  in
  Alcotest.(check (list string)) "the clean soak is clean" [] clean

(* --- registry sanity --- *)

let test_registry_complete () =
  let ids = Harness.Registry.ids () in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [
      "flood";
      "early-stopping";
      "bjbo";
      "crash-sub";
      "dolev-strong";
      "phase-king";
      "optimal";
      "param-x2";
      "operative-broadcast";
    ];
  Alcotest.(check bool) "find hit" true
    (Result.is_ok (Harness.Registry.find "optimal"));
  (match Harness.Registry.find "no-such-protocol" with
  | Ok _ -> Alcotest.fail "find miss must be Error"
  | Error msg ->
      Alcotest.(check bool) "error names the id" true
        (let sub = {|"no-such-protocol"|} in
         let rec has i =
           i + String.length sub <= String.length msg
           && (String.sub msg i (String.length sub) = sub || has (i + 1))
         in
         has 0);
      List.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "error lists %s" id)
            true
            (let rec has i =
               i + String.length id <= String.length msg
               && (String.sub msg i (String.length id) = id || has (i + 1))
             in
             has 0))
        (Harness.Registry.ids ()))

let test_runner_determinism () =
  let s =
    Harness.Scenario.of_string "9/2/77/010110110/again(strike(rnd2,p50))"
  in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Harness.Registry.id ^ " deterministic")
        true
        (Conformance.Runner.determinism_violation e s = None))
    Harness.Registry.all

let suite =
  [
    qcheck qcheck_strategy_roundtrip;
    qcheck qcheck_scenario_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    qcheck qcheck_crash_subalgebra;
    qcheck qcheck_strategy_shrink_decreases;
    Alcotest.test_case "crash-compatible examples" `Quick
      test_crash_compatible_examples;
    Alcotest.test_case "snd, local and link codec and shrink" `Quick
      test_named_constructors;
    qcheck qcheck_mask_route_equals_pointwise;
    qcheck qcheck_conformance;
    qcheck qcheck_runner_spec_replays;
    Alcotest.test_case "broken protocol caught and shrunk" `Quick
      test_broken_protocol_caught;
    Alcotest.test_case "counterexample quarantine record" `Quick
      test_counterexample_record;
    Alcotest.test_case "fuzz outcome identical at any jobs" `Quick
      test_fuzz_jobs_invariant;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "replay determinism per protocol" `Quick
      test_runner_determinism;
  ]
