(** Differential conformance runner: execute registered protocols on the
    same scenario, each as a {!Run_spec.t} through {!Run_spec.supervise},
    and report what {!Supervise.Oracle} rejects — the consensus or
    broadcast properties and termination for protocols whose fault model
    covers the scenario's strategy, the engine metric invariants on every
    run. *)

type violation = {
  protocol : string;
  property : string;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type run_result = {
  spec : Run_spec.t;  (** its [protocol] is the entry's id *)
  checked : bool;  (** in-model: the consensus properties were asserted *)
  outcome : Sim.Engine.outcome option;  (** [None] if the run raised *)
  violations : violation list;
}

type report = {
  scenario : Harness.Scenario.t;
  results : run_result list;
}

val report_violations : report -> violation list

val spec : Harness.Registry.entry -> Harness.Scenario.t -> Run_spec.t
(** The scenario's run on the entry: t clamped to the entry's [max_t], the
    strategy term, the input bits and, in model, the entry's schedule
    bound as the round budget. *)

val run_entry :
  ?trace:Trace.Sink.t -> Harness.Registry.entry -> Harness.Scenario.t -> run_result
(** Run one protocol on a scenario, its {!spec} with the entry's builder
    and kind. A round-budget breach is a ["termination"] violation; out of
    model only the metric invariants count. [trace], if given, receives
    the run's engine event stream. *)

val run :
  ?protocols:Harness.Registry.entry list ->
  ?include_out_of_model:bool ->
  Harness.Scenario.t ->
  report
(** Run the differential suite. By default only protocols whose model
    covers the scenario are executed; [include_out_of_model] runs the rest
    too, asserting just the engine metric invariants. *)

val determinism_violation :
  Harness.Registry.entry -> Harness.Scenario.t -> violation option
(** Replay the scenario twice on one protocol and compare the outcome
    records bit for bit. *)

val pp_report : Format.formatter -> report -> unit
(** One row per run, each with its [run --spec] replay line. *)
