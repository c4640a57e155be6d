(** QCheck arbitraries over the harness's generators, for the
    property-based test suites: scenarios (full algebra or the
    crash-compatible sub-algebra) and bare strategy terms, all with
    printers and shrinkers attached.

    The QCheck random state is only used to draw a root seed; the value is
    then a pure function of that seed through {!Sim.Rand}, so a fixed
    [~rand] in the test runner makes CI fully deterministic. *)

let rand_of st = Sim.Rand.create ~seed:(Int64.of_int (Random.State.bits st)) ()

let scenario_of ?max_n ?crash_bias () st =
  Scenario.generate ?max_n ?crash_bias (rand_of st)

(** Arbitrary scenario; [crash_bias 1.0] restricts to the crash-compatible
    sub-algebra (for the crash-model baselines). *)
let scenario ?max_n ?crash_bias () =
  QCheck.make
    ~print:Scenario.to_string
    ~shrink:(fun s -> QCheck.Iter.of_list (Scenario.shrink s))
    (scenario_of ?max_n ?crash_bias ())

(** Arbitrary strategy term (for codec/compilation properties). *)
let strategy ?(n = 16) ?(crash = false) () =
  QCheck.make
    ~print:Adversary.Strategy.to_string
    ~shrink:(fun s -> QCheck.Iter.of_list (Adversary.Strategy.shrink s))
    (fun st ->
      let rand = rand_of st in
      Scenario.gen_strategy rand ~n ~crash
        ~depth:(1 + Sim.Rand.int_below rand 3))
