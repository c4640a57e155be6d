(** Differential conformance runner: execute registered protocols on the
    same scenario and check each against its spec — [Supervise.Oracle]'s
    agreement and validity plus termination (and the broadcast's
    conditional delivery) for protocols whose fault model covers the
    scenario's strategy, and the oracle's engine metric invariants on
    every run. *)

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
  let inner = Adversary.Strategy.compile strategy in
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

(* The Section-6 guarantee: with the source non-faulty and operative
   throughout, every process still operative at the end delivers. *)
let check_delivery (s : Scenario.t) ~source ~final_operative
    ~source_operative (o : Sim.Engine.outcome) =
  let bad = ref [] in
  let input = s.Scenario.inputs.(source) in
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
let run_entry ?trace (entry : Registry.entry) (s : Scenario.t) : run_result =
  let checked = Registry.in_model entry s in
  let cfg = config_for entry s in
  let source =
    match entry.kind with
    | Broadcast { source } -> Some source
    | Consensus -> None
  in
  let adversary, final_operative, source_operative =
    probed_adversary s.Scenario.strategy ~source
  in
  match
    Sim.Engine.run ?trace (Registry.build entry cfg) cfg ~adversary
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
      (* out of model, only the engine's metric invariants are held *)
      let violations =
        if not checked then Supervise.Oracle.metrics cfg o
        else
          Supervise.Oracle.violations ~termination:true entry.kind cfg
            ~inputs:s.Scenario.inputs o
          @
          match source with
          | Some source ->
              check_delivery s ~source ~final_operative:!final_operative
                ~source_operative:!source_operative o
          | None -> []
      in
      {
        id = entry.id;
        checked;
        outcome = Some o;
        violations =
          List.map
            (fun (property, detail) ->
              { protocol = entry.id; property; detail })
            violations;
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
