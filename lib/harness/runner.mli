(** Differential conformance runner: execute registered protocols on the
    same scenario and check each against its spec — [Supervise.Oracle]'s
    agreement and validity, plus termination, for protocols whose fault
    model covers the scenario's strategy (and the conditional delivery
    guarantee for the broadcast), and the oracle's engine metric
    invariants on every run. *)

type violation = {
  protocol : string;
  property : string;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

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

val report_violations : report -> violation list
val report_ok : report -> bool

val config_for : Registry.entry -> Scenario.t -> Sim.Config.t
(** The configuration the entry runs under: the scenario's budget clamped
    to the entry's tolerance, the entry's schedule bound as [max_rounds]. *)

val run_entry : ?trace:Trace.Sink.t -> Registry.entry -> Scenario.t -> run_result
(** Run one protocol on a scenario. [trace], if given, receives the run's
    engine event stream (see {!Sim.Engine.run}). *)

val run :
  ?protocols:Registry.entry list ->
  ?include_out_of_model:bool ->
  Scenario.t ->
  report
(** Run the differential suite. By default only protocols whose model
    covers the scenario are executed; [include_out_of_model] runs the rest
    too, asserting just the engine metric invariants. *)

val determinism_violation : Registry.entry -> Scenario.t -> violation option
(** Replay the scenario twice on one protocol and compare the outcome
    records bit for bit. *)

val pp_report : Format.formatter -> report -> unit
