(** The fuzzing loop: generate scenarios, run the differential conformance
    suite on each, and on a violation greedily shrink to a minimal
    (n, t, strategy) counterexample with a [run --spec] replay line. *)

type stats = {
  mutable scenarios : int;
  mutable runs : int;  (** protocol executions *)
  mutable checked : int;  (** executions with consensus properties asserted *)
  mutable determinism_checks : int;
}

type failure = {
  index : int;  (** soak index of [original] *)
  original : Harness.Scenario.t;
  shrunk : Harness.Scenario.t;
  violation : Runner.violation;
  entry : Harness.Registry.entry;  (** the violating protocol *)
  shrink_steps : int;
}

val pp_failure : Format.formatter -> failure -> unit
(** Ends with the shrunk scenario's {!Runner.spec} on [entry] as a
    {!Run_spec.to_command} replay line. *)

val quarantine :
  tail_rounds:int -> dir:string -> failure -> Supervise.failure * string
(** The counterexample as a quarantine record: [Violated], label
    [fuzz-counterexample/<id>], the original's soak index and seed, the
    replay line {!pp_failure} prints, and the last [tail_rounds] rounds
    of re-running it. That run's full trace goes to the returned path,
    [dir/fuzz-counterexample.<id>.trace.jsonl]. *)

val run :
  ?protocols:Harness.Registry.entry list ->
  ?count:int ->
  ?seed:int ->
  ?max_n:int ->
  ?time_budget:float ->
  ?jobs:int ->
  ?progress:(string -> unit) ->
  ?store:Cache.Store.t ->
  unit ->
  (stats, failure * stats) result
(** Run [count] generated scenarios (stopping early after [time_budget]
    wall-clock seconds, if given). Every 25th scenario is additionally
    replayed twice for bit-identical determinism. Returns the stats, or the
    first failure, already shrunk greedily through
    {!Harness.Scenario.shrink}: each step takes the first candidate that
    still reproduces a violation of the same protocol and property.

    Scenario batches go through [Supervise.Cached.map] across [jobs]
    domains (default {!Exec.default_jobs}); every scenario is a pure
    function of [seed] and its index, and batch results are folded in
    index order, so the outcome — stats, first violation, shrunk
    counterexample — is identical at any [jobs]. A violating scenario is
    a failed task; the fold re-evaluates the first one on the calling
    domain, where it is shrunk and where a harness exception propagates.

    With [store], it holds each clean scenario's stats contribution,
    keyed by the scenario itself (plus the protocol set and the
    determinism-check assignment). Stored scenarios
    are folded without re-evaluation, so a soak interrupted and rerun on
    the same store reports stats identical to an uninterrupted one, and
    a repeated or reseeded soak skips work any earlier one already did.
    Violations are never stored: resuming a failing soak re-finds the
    violation. The caller closes the store. *)
