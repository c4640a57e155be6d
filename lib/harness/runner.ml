(** Differential conformance runner: execute registered protocols on the
    same scenario and check each against its spec — the consensus
    properties (agreement, weak validity, termination) for protocols whose
    fault model covers the scenario's strategy, plus the engine metric
    invariants on every run. *)

type violation = {
  protocol : string;
  property : string;
  detail : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s: %s" v.protocol v.property v.detail

type run_result = {
  id : string;
  checked : bool;  (** in-model: the consensus properties were asserted *)
  outcome : Sim.Engine.outcome option;  (** [None] if the run raised *)
  violations : violation list;
}

type report = {
  scenario : Scenario.t;
  results : run_result list;
}

let report_violations r = List.concat_map (fun res -> res.violations) r.results
let report_ok r = report_violations r = []

(* Configuration a protocol entry actually runs under: the scenario's
   budget clamped to the entry's tolerance, and the entry's schedule bound
   as max_rounds. *)
let config_for (entry : Registry.entry) (s : Scenario.t) =
  let t_max = max 0 (min s.Scenario.t_max (entry.max_t s.Scenario.n)) in
  let cfg0 = Sim.Config.make ~n:s.n ~t_max ~seed:s.seed () in
  { cfg0 with Sim.Config.max_rounds = Registry.rounds_bound entry cfg0 }

(* Probe wrapper: records the operative flags of the last observed round
   and whether [source] stayed operative throughout — the conditional the
   broadcast guarantee hinges on. *)
let probed_adversary strategy ~source =
  let final_operative = ref [||] in
  let source_operative = ref true in
  let inner = Strategy.compile strategy in
  let adversary =
    {
      inner with
      Sim.Adversary_intf.create =
        (fun cfg rand ->
          let step = inner.Sim.Adversary_intf.create cfg rand in
          fun view ->
            final_operative :=
              Array.map (fun o -> o.Sim.View.core.operative) view.Sim.View.obs;
            (match source with
            | Some src ->
                if not view.Sim.View.obs.(src).core.operative then
                  source_operative := false
            | None -> ());
            step view);
    }
  in
  (adversary, final_operative, source_operative)

let check_metrics (cfg : Sim.Config.t) (o : Sim.Engine.outcome) =
  let bad = ref [] in
  let check property cond detail =
    if not cond then bad := (property, detail) :: !bad
  in
  let faulty_count =
    Array.fold_left (fun a f -> if f then a + 1 else a) 0 o.faulty
  in
  check "metric:fault-budget"
    (o.faults_used <= cfg.t_max)
    (Printf.sprintf "faults_used %d > t_max %d" o.faults_used cfg.t_max);
  check "metric:fault-count"
    (o.faults_used = faulty_count)
    (Printf.sprintf "faults_used %d <> |faulty| %d" o.faults_used faulty_count);
  check "metric:omitted<=sent"
    (o.messages_omitted <= o.messages_sent && o.messages_omitted >= 0)
    (Printf.sprintf "omitted %d vs sent %d" o.messages_omitted o.messages_sent);
  check "metric:bits>=messages"
    (o.bits_sent >= o.messages_sent)
    (Printf.sprintf "bits %d < messages %d" o.bits_sent o.messages_sent);
  check "metric:rounds<=max"
    (o.rounds_total <= cfg.max_rounds)
    (Printf.sprintf "rounds %d > max_rounds %d" o.rounds_total cfg.max_rounds);
  (match o.decided_round with
  | Some r ->
      check "metric:decided-round"
        (r >= 1 && r <= o.rounds_total)
        (Printf.sprintf "decided_round %d outside [1, %d]" r o.rounds_total)
  | None -> ());
  check "metric:rand-monotone"
    (o.rand_calls >= 0 && o.rand_bits >= o.rand_calls)
    (Printf.sprintf "rand bits %d < calls %d" o.rand_bits o.rand_calls);
  check "metric:rand-zero"
    (o.rand_calls > 0 || o.rand_bits = 0)
    (Printf.sprintf "0 calls but %d bits" o.rand_bits);
  Array.iteri
    (fun pid d ->
      match d with
      | Some v when v <> 0 && v <> 1 ->
          check "metric:decision-bit" false
            (Printf.sprintf "pid %d decided non-bit %d" pid v)
      | _ -> ())
    o.decisions;
  List.rev !bad

let check_consensus (s : Scenario.t) (o : Sim.Engine.outcome) =
  let bad = ref [] in
  if not (Sim.Engine.all_nonfaulty_decided o) then
    bad :=
      ("termination", "a non-faulty process never decided") :: !bad
  else begin
    match Sim.Engine.agreed_decision o with
    | None -> bad := ("agreement", "non-faulty processes disagree") :: !bad
    | Some v ->
        if not (Array.exists (fun b -> b = v) s.Scenario.inputs) then
          bad :=
            ( "validity",
              Printf.sprintf "decision %d is nobody's input" v )
            :: !bad
  end;
  List.rev !bad

let check_broadcast (s : Scenario.t) ~source ~final_operative
    ~source_operative (o : Sim.Engine.outcome) =
  let bad = ref [] in
  let input = s.Scenario.inputs.(source) in
  if not (Sim.Engine.all_nonfaulty_decided o) then
    bad := ("termination", "a non-faulty process never decided") :: !bad;
  Array.iteri
    (fun pid d ->
      match d with
      | Some v when (not o.faulty.(pid)) && v <> 0 && v <> input ->
          bad :=
            ( "broadcast-validity",
              Printf.sprintf "pid %d delivered %d, source sent %d" pid v input
            )
            :: !bad
      | _ -> ())
    o.decisions;
  (* the Section-6 guarantee: with the source non-faulty and operative
     throughout, every process still operative at the end delivers *)
  if (not o.faulty.(source)) && source_operative then
    Array.iteri
      (fun pid d ->
        if
          (not o.faulty.(pid))
          && pid < Array.length final_operative
          && final_operative.(pid)
          && d <> Some input
        then
          bad :=
            ( "broadcast-delivery",
              Printf.sprintf "operative pid %d decided %s, not source bit %d"
                pid
                (match d with Some v -> string_of_int v | None -> "nothing")
                input )
            :: !bad)
      o.decisions;
  List.rev !bad

(** Run one protocol on a scenario. [checked] in the result says whether
    the consensus/broadcast properties were asserted (the protocol's model
    covers the strategy) — the metric invariants are always asserted.
    [trace], if given, receives the run's engine event stream. *)
let run_entry ?trace ?net (entry : Registry.entry) (s : Scenario.t) :
    run_result =
  let checked = Registry.in_model entry s in
  let cfg = config_for entry s in
  let link =
    match net with
    | None -> None
    | Some spec -> Some (Net.Transport.link (Net.Transport.create spec cfg))
  in
  let source =
    match entry.kind with
    | Registry.Broadcast { source } -> Some source
    | Registry.Consensus -> None
  in
  let adversary, final_operative, source_operative =
    probed_adversary s.Scenario.strategy ~source
  in
  match
    Sim.Engine.run ?trace ?link (Registry.build entry cfg) cfg ~adversary
      ~inputs:s.Scenario.inputs
  with
  | exception e ->
      {
        id = entry.id;
        checked;
        outcome = None;
        violations =
          [
            {
              protocol = entry.id;
              property =
                (match e with
                | Sim.Engine.Illegal_plan _ -> "illegal-plan"
                | _ -> "exception");
              detail = Printexc.to_string e;
            };
          ];
      }
  | o ->
      let metric = check_metrics cfg o in
      let spec =
        if not checked then []
        else
          match entry.kind with
          | Registry.Consensus -> check_consensus s o
          | Registry.Broadcast { source } ->
              check_broadcast s ~source
                ~final_operative:!final_operative
                ~source_operative:!source_operative o
      in
      {
        id = entry.id;
        checked;
        outcome = Some o;
        violations =
          List.map
            (fun (property, detail) ->
              { protocol = entry.id; property; detail })
            (metric @ spec);
      }

(** Run the differential suite. By default only protocols whose model
    covers the scenario are executed ([include_out_of_model] runs the rest
    too, asserting just the engine metric invariants). *)
let run ?(protocols = Registry.all) ?(include_out_of_model = false)
    (s : Scenario.t) : report =
  let results =
    List.filter_map
      (fun entry ->
        if s.Scenario.n < entry.Registry.min_n then None
        else if Registry.in_model entry s || include_out_of_model then
          Some (run_entry entry s)
        else None)
      protocols
  in
  { scenario = s; results }

(** Replay the scenario twice on one protocol and compare the outcome
    records bit for bit — the engine's pure-function-of-the-seed
    guarantee. *)
let determinism_violation (entry : Registry.entry) (s : Scenario.t) :
    violation option =
  let once () = run_entry entry s in
  let r1 = once () and r2 = once () in
  if r1.outcome = r2.outcome then None
  else
    Some
      {
        protocol = entry.id;
        property = "determinism";
        detail = "two runs with the same seed produced different outcomes";
      }

let pp_report ppf (r : report) =
  Fmt.pf ppf "scenario %s@." (Scenario.to_string r.scenario);
  List.iter
    (fun res ->
      match res.outcome with
      | None ->
          Fmt.pf ppf "  %-20s RAISED %s@." res.id
            (match res.violations with v :: _ -> v.detail | [] -> "?")
      | Some o ->
          Fmt.pf ppf
            "  %-20s %s rounds=%-4d msgs=%-7d omitted=%-6d faults=%d %s@."
            res.id
            (if res.checked then "checked" else "metrics")
            o.rounds_total o.messages_sent o.messages_omitted o.faults_used
            (match Sim.Engine.agreed_decision o with
            | Some v -> Printf.sprintf "decision=%d" v
            | None -> "no-agreement"))
    r.results;
  List.iter
    (fun v -> Fmt.pf ppf "  VIOLATION %a@." pp_violation v)
    (report_violations r)
