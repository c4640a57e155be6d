(** Differential conformance runner: each registered protocol runs a
    scenario as a [Run_spec] through [Run_spec.supervise], the [run]
    subcommand's path, so [Supervise.Oracle] judges it. *)

open Harness

type violation = {
  protocol : string;
  property : string;
  detail : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s: %s" v.protocol v.property v.detail

type run_result = {
  spec : Run_spec.t;  (** its [protocol] is the entry's id *)
  checked : bool;  (** in-model: the consensus properties were asserted *)
  outcome : Sim.Engine.outcome option;  (** [None] if the run raised *)
  violations : violation list;
}

type report = {
  scenario : Scenario.t;
  results : run_result list;
}

let report_violations r = List.concat_map (fun res -> res.violations) r.results

(* In model, the schedule bound is the round budget, so a run still
   undecided there is a supervision failure. *)
let spec (entry : Registry.entry) (s : Scenario.t) =
  let t_max = max 0 (min s.Scenario.t_max (entry.max_t s.n)) in
  let budget =
    if Registry.in_model entry s then
      Supervise.Budget.make
        ~max_rounds:
          (Registry.rounds_bound entry
             (Sim.Config.make ~n:s.n ~t_max ~seed:s.seed ()))
        ()
    else Supervise.Budget.unlimited
  in
  Run_spec.make ~protocol:entry.id ~n:s.n ~t_max ~seed:s.seed
    ~adversary:(Adversary.Strategy.to_string s.strategy)
    ~inputs:(Scenario.bits s) ~budget ()

(* [Supervise.run] reports a raising run as its exception's text *)
let illegal_plan = Printexc.exn_slot_name (Sim.Engine.Illegal_plan "")

let run_entry ?trace (entry : Registry.entry) (s : Scenario.t) : run_result =
  let checked = Registry.in_model entry s in
  let spec = spec entry s in
  let outcome, violations =
    match Run_spec.supervise ?trace ~property:entry.kind entry.builder spec with
    | Ok (o, _) -> (Some o, [])
    | Error (Crashed { exn_text; _ }, _) ->
        let property =
          if String.starts_with ~prefix:illegal_plan exn_text then
            "illegal-plan"
          else "exception"
        in
        (None, [ (property, exn_text) ])
    | Error (_, Some (o, _)) when not checked ->
        (* out of model, only the engine's metric invariants are held *)
        (Some o, Supervise.Oracle.metrics (Run_spec.config spec entry.builder) o)
    | Error (Violated { property; detail }, partial) ->
        (Option.map fst partial, [ (property, detail) ])
    | Error (kind, partial) ->
        (* the spec's one budget is the round ceiling *)
        ( Option.map fst partial,
          [ ("termination", Fmt.str "%a" Supervise.pp_failure_kind kind) ] )
  in
  {
    spec;
    checked;
    outcome;
    violations =
      List.map
        (fun (property, detail) -> { protocol = entry.id; property; detail })
        violations;
  }

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

(* the engine's pure-function-of-the-seed guarantee *)
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
      (match res.outcome with
      | None ->
          Fmt.pf ppf "  %-20s RAISED %s@." res.spec.protocol
            (match res.violations with v :: _ -> v.detail | [] -> "?")
      | Some o ->
          Fmt.pf ppf
            "  %-20s %s rounds=%-4d msgs=%-7d omitted=%-6d faults=%d %s@."
            res.spec.protocol
            (if res.checked then "checked" else "metrics")
            o.rounds_total o.messages_sent o.messages_omitted o.faults_used
            (match Sim.Engine.agreed_decision o with
            | Some v -> Printf.sprintf "decision=%d" v
            | None -> "no-agreement"));
      Fmt.pf ppf "    replay: %s@." (Run_spec.to_command res.spec))
    r.results;
  List.iter
    (fun v -> Fmt.pf ppf "  VIOLATION %a@." pp_violation v)
    (report_violations r)
