(* Property-based tests for the fuzzing harness: the strategy codec, the
   crash-compatible sub-algebra, compiled-strategy legality, differential
   conformance across the whole registry, and the failure minimiser. All
   QCheck tests run from a fixed random state so CI is deterministic. *)

let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xace5 |]) t

(* --- codec --- *)

let qcheck_strategy_roundtrip =
  QCheck.Test.make ~name:"strategy codec roundtrips" ~count:300
    (Harness.Qgen.strategy ~n:16 ())
    (fun s -> Harness.Strategy.(of_string (to_string s)) = s)

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
    (fun s -> Harness.Strategy.crash_compatible s.Harness.Scenario.strategy)

let qcheck_strategy_shrink_decreases =
  QCheck.Test.make ~name:"strategy shrink strictly decreases size" ~count:300
    (Harness.Qgen.strategy ~n:16 ())
    (fun s ->
      List.for_all
        (fun c -> Harness.Strategy.size c < Harness.Strategy.size s)
        (Harness.Strategy.shrink s))

let test_crash_compatible_examples () =
  let check str expect =
    Alcotest.(check bool) str expect
      (Harness.Strategy.crash_compatible (Harness.Strategy.of_string str))
  in
  check "strike(low1,out)" true;
  check "strike(low1,all)" true;
  check "from(3,strike(p2,out))" true;
  check "strike(low1,in)" false;
  check "strike(low1,half)" false;
  check "strike(low1,to1)" false;
  check "until(5,strike(low1,out))" false;
  check "seq[strike(p0,out);idle]" false

(* --- differential conformance: the tentpole property ---

   Every registered protocol, on any generated scenario inside its fault
   model, satisfies its spec; every run (in model or not) satisfies the
   engine metric invariants; and no generated strategy ever produces an
   illegal plan. One property exercises all of it. *)

let qcheck_conformance =
  QCheck.Test.make ~name:"registry conforms on generated scenarios" ~count:40
    (Harness.Qgen.scenario ~max_n:24 ())
    (fun s ->
      let report = Harness.Runner.run ~include_out_of_model:true s in
      match Harness.Runner.report_violations report with
      | [] -> true
      | v :: _ ->
          QCheck.Test.fail_reportf "%a on %a" Harness.Runner.pp_violation v
            Harness.Scenario.pp s)

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

let test_broken_protocol_caught () =
  match Harness.Fuzz.run ~protocols:[ selfish_entry ] ~count:50 ~seed:3 () with
  | Ok _ -> Alcotest.fail "fuzzer missed the broken protocol"
  | Error (f, _) ->
      Alcotest.(check string) "agreement violated" "agreement"
        f.Harness.Fuzz.violation.property;
      Alcotest.(check bool) "shrunk is no larger" true
        (Harness.Scenario.measure f.shrunk
        <= Harness.Scenario.measure f.original);
      (* the shrunk scenario still reproduces the same violation *)
      let report = Harness.Runner.run ~protocols:[ selfish_entry ] f.shrunk in
      Alcotest.(check bool) "shrunk reproduces" true
        (List.exists
           (fun v -> v.Harness.Runner.property = "agreement")
           (Harness.Runner.report_violations report));
      (* and the replay one-liner names exactly the shrunk scenario *)
      let cmd = Harness.Fuzz.replay_command f.shrunk in
      let sub = Harness.Scenario.to_string f.shrunk in
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "replay command mentions scenario" true
        (contains cmd sub)

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
        (Harness.Runner.determinism_violation e s = None))
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
    qcheck qcheck_conformance;
    Alcotest.test_case "broken protocol caught and shrunk" `Quick
      test_broken_protocol_caught;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "replay determinism per protocol" `Quick
      test_runner_determinism;
  ]
