(** Run supervision and fault containment for sweeps.

    The experiment campaigns in [bench/] and the fuzz soak
    ([Conformance.Fuzz.run], batches through {!Cached.map}) run thousands of
    independent simulator tasks; at that scale stragglers and failures are
    expected, and one pathological run must not discard a whole campaign's
    work. This layer wraps {!Exec} and {!Sim.Engine.run} with:

    - {b one supervised run} ({!run}): the engine under the watchdog,
      over an optional lossy link and through the run cache, with every
      finished run — fast or traced, fresh or a cache hit — judged by
      {b the outcome oracle} ({!Oracle}).
    - {b watchdog budgets} ({!Budget}): every supervised task gets a
      wall-clock timeout plus round / message / random-bit ceilings — the
      [Config.max_rounds] semantics extended to all the paper's metrics. A
      breached budget yields a structured {!failure_kind} result, never an
      exception.
    - {b failure quarantine} ({!map}): every task runs to completion even
      when some fail; each failure carries the exception text, backtrace,
      seed and a replay command, so sweeps degrade to partial results plus
      a quarantine report instead of aborting.
    - {b checkpoint/resume}: {!run}'s [cache] and {!Cached.map} over the
      run cache, the only memo. The store holds successes only: a
      {!run} result under its [Run_spec] key, and through {!Cached.map}
      a bench task's measurement or a fuzz scenario's stats contribution
      under the caller's key. Failures, oracle violations and fuzz
      counterexamples included, always re-run.
    - {b chaos mode} ({!Chaos}): seeded fault injection — exceptions,
      artificial stragglers, crashing protocols — used by the test suite
      to prove the containment claims above. *)

(** Watchdog budgets for a supervised task. *)
module Budget : sig
  type t = {
    wall_s : float option;  (** wall-clock ceiling, seconds *)
    max_rounds : int option;  (** engine rounds ceiling (inclusive) *)
    max_messages : int option;  (** total messages ceiling (inclusive) *)
    max_rand_bits : int option;  (** total random bits ceiling (inclusive) *)
  }

  val unlimited : t

  val make :
    ?wall_s:float ->
    ?max_rounds:int ->
    ?max_messages:int ->
    ?max_rand_bits:int ->
    unit ->
    t

  val is_unlimited : t -> bool
  val pp : Format.formatter -> t -> unit
end

(** What a finished run must satisfy: the paper's agreement and validity
    among the non-faulty processes (Section 2), a broadcast's conditional
    delivery (Section 6), and the engine's metric invariants. Termination
    is a measurement; a round budget ({!Budget}) makes it a failure. *)
module Oracle : sig
  type property =
    | Consensus
        (** agreement + weak validity among non-faulty *)
    | Broadcast of { source : int }
        (** decisions are the source's bit or the default 0, and the
            source's bit while it stays operative *)

  val metrics : Sim.Config.t -> Sim.Engine.outcome -> (string * string) list
  (** The engine's metric invariants, as [(property, detail)] pairs named
      ["metric:…"]. *)

  val violations :
    ?degradation:Net.Degradation.t ->
    ?operative:bool array ->
    property ->
    Sim.Config.t ->
    inputs:int array ->
    Sim.Engine.outcome ->
    (string * string) list
  (** {!metrics}, then the safety half over the decided covered
      processes: ["agreement"] or ["validity"] (the decision is some
      process's input) for [Consensus], a ["broadcast-validity"] per
      process deciding neither 0 nor the source's input for [Broadcast].
      The covered processes are the non-faulty ones, or those outside a
      [degradation] report's effective fault set. Empty for a correct run.

      [operative] is each process's operative flag in the last round,
      given ({!run} does) when the source was operative in every round:
      then each covered operative process not deciding a covered source's
      input is a ["broadcast-delivery"]. *)

  val decision : ?degradation:Net.Degradation.t -> Sim.Engine.outcome -> int option
  (** The common decision of the covered processes, or [None] if one is
      undecided or two disagree. *)
end

type breach = {
  metric : string;  (** ["rounds"], ["messages"] or ["rand_bits"] *)
  limit : float;
  actual : float;
  at_round : int;  (** round at which the watchdog tripped *)
}

type failure_kind =
  | Crashed of { exn_text : string; backtrace : string }
  | Timeout of { limit_s : float; elapsed_s : float }
  | Budget_exceeded of breach
  | Degraded of { induced : int; adversarial : int; t_max : int; residual : int }
      (** a lossy-link run left the omission model: the transport's induced
          faults plus the adversary's exceeded [t_max] (see
          [Net.Degradation] and {!run}) *)
  | Violated of { property : string; detail : string }
      (** the oracle rejected a finished run: [property] names the first
          violation ({!Oracle.violations}) *)

exception Breach of {
  kind : failure_kind;
  trace : string list;
  replay : string option;
}
(** Tasks running under {!map} raise [Breach] to report a structured
    failure: {!run} errors are re-raised this way, so the quarantine
    record keeps the precise kind instead of a generic [Crashed]. [trace]
    is the run's last-K-rounds trace tail as JSONL event lines
    ({!Trace.Tail.lines}), stored in [failure.trace]. [replay] is a
    one-liner that reproduces this very run, such as a [Run_spec]
    command; {!map} records it ahead of the descriptor's [d_replay]. *)

(** What a task is, for the quarantine report: a human label, the seed it
    is a pure function of, and a shell one-liner that reproduces it. *)
type descriptor = {
  d_label : string;
  d_seed : int option;
  d_replay : string option;
}

type failure = {
  index : int;  (** task index within the supervised batch *)
  label : string;
  seed : int option;
  replay : string option;
      (** reproduction command: the {!Breach}'s own, else the
          descriptor's, if either gave one *)
  kind : failure_kind;
  elapsed_s : float;
  trace : string list;
      (** last-K-rounds trace tail as JSONL event lines, when the task
          raised a {!Breach} carrying one; empty otherwise *)
}

val current_label : unit -> string option
(** Label (descriptor [d_label]) of the task the calling domain is
    currently running under {!map}, if any — lets code deep inside a task
    (e.g. the trace-file writer in [bench_util]) name its output after the
    sweep point. *)

val pp_failure_kind : Format.formatter -> failure_kind -> unit

val failure_fields : ?elapsed:bool -> failure -> (string * Jsonl.v) list
(** The quarantine record's fields, in order: [index], [label], [seed]?,
    [replay]?, [failure] ("crashed" | "timeout" | "budget_exceeded" |
    "degraded" | "violated") and its kind-specific fields ([exn] and
    [backtrace]? for a crash; [limit_s] and [timeout_elapsed_s] for a
    timeout; [metric], [limit], [actual] and [at_round] for a breach;
    [induced_faults], [adversarial_faults], [t_max] and [residual_losses]
    for a degraded run; [property] and [detail] for a violated one), then [elapsed_s] and [trace]? (the tail's event objects).
    Seconds are written to the millisecond. [~elapsed:false] leaves out
    the wall-clock [elapsed_s]. *)

val failure_json : failure -> string
(** The quarantine record as one JSON-lines object (no trailing
    newline): [{"kind":"quarantine"] followed by {!failure_fields}. *)

val run :
  ?trace:Trace.Sink.t ->
  ?budget:Budget.t ->
  ?net:Net.Spec.t ->
  ?cache:Cache.Store.t * string ->
  property:Oracle.property ->
  Sim.Protocol_intf.buffered ->
  Sim.Config.t ->
  adversary:Sim.Adversary_intf.t ->
  inputs:int array ->
  ( Sim.Engine.outcome * Net.Degradation.t option,
    failure_kind * (Sim.Engine.outcome * Net.Degradation.t option) option )
  result
(** {!Sim.Engine.run} under a watchdog, judged by the {!Oracle}.

    The budget is checked after every round; a breached ceiling stops the
    engine (same semantics as [max_rounds]) and returns
    [Error (kind, Some partial)] with the partial outcome's counters
    intact — unless the run had already decided, which counts as a
    finished run. A raising protocol or adversary (including
    {!Sim.Engine.Illegal_plan}) returns [Error (Crashed _, None)] instead
    of propagating. A run that merely hits [cfg.max_rounds] undecided is
    still [Ok]: not deciding is a measurement, not a supervision failure.

    [net] runs over that lossy link, with its [Net.Degradation] report
    beside the outcome ([None] without a net). A run whose effective
    fault set exceeds [cfg.t_max] is beyond the omission model:
    [Error (Degraded _, Some _)], kept for forensics, never a consensus
    result. Every other finished run is checked with
    {!Oracle.violations} for [property] over [inputs] (over the effective
    fault set on a lossy link); the first violation is
    [Error (Violated _, Some _)]. A [Broadcast] run's adversary is wrapped
    to record the operative flags for the delivery check; the plan and
    the outcome are the unwrapped run's.

    [cache] is a store and the caller's canonical key for the run (a
    [Run_spec] string). A hit emits a {!Trace.Event.Cache_hit} event into
    [trace] and is judged like a fresh run, bar the delivery check it
    passed when written: only [Ok] results are written back. *)

val map :
  ?jobs:int ->
  ?budget:Budget.t ->
  ?describe:(int -> 'a -> descriptor) ->
  ('a -> 'b) ->
  'a array ->
  ('b, failure) result array
(** Quarantining {!Exec.mapi}: every task is attempted, failures are
    contained. A task that raises yields [Error] with kind [Crashed] (or
    the precise kind if it raised {!Breach}); a task that completes but
    overran [budget.wall_s] yields [Error] with kind [Timeout]. Since no
    task ever raises into the pool, {!Exec}'s early-cancel fast path never
    engages — results land in input order with the same determinism
    contract as {!Exec.map}. Wall-clock enforcement is cooperative: the
    elapsed time is checked when the task returns (and, for engine tasks
    run through {!run}, at every round boundary). *)

(** Seeded fault injection, for proving the supervision layer contains
    what it claims to contain. *)
module Chaos : sig
  exception Injected of string

  val pick : seed:int -> n:int -> k:int -> int list
  (** [k] distinct victim indices in [0, n), drawn by a seeded shuffle —
      deterministic, sorted. *)

  type t

  val make :
    ?crash:int list ->
    ?straggle:int list ->
    ?straggle_s:float ->
    unit ->
    t
  (** A chaos plan over task indices: tasks in [crash] raise {!Injected};
      tasks in [straggle] sleep [straggle_s] (default 0.2 s) before
      running. Membership is precomputed into byte masks here, so {!wrap}
      is O(1) per task regardless of victim-list length. *)

  val wrap : t -> (int -> 'a -> 'b) -> int -> 'a -> 'b
  (** Apply the plan to an indexed task function (the shape {!Exec.mapi}
      and the [describe]-aware sweeps use). *)

  val protocol :
    ?pid:int ->
    crash_round:int ->
    Sim.Protocol_intf.buffered ->
    Sim.Protocol_intf.buffered
  (** Wrap a protocol so that [step_into] raises {!Injected} at [crash_round]
      (for process [pid] only, if given) — a pathological protocol bug on
      demand, used to test {!run}'s containment. *)
end

module Cached : sig
  (** Content-addressed caching over {!map}. [key] is the caller's
      canonical serialization of everything that determines the result
      (an experiment point string for bench tasks); the store addresses
      it under [digest(fingerprint, key)], so a change to the code the
      fingerprint digests invalidates everything at once. Only successes
      are cached. *)

  val outcome_to_string : Sim.Engine.outcome -> string
  (** The outcome's cache payload. Its bytes are frozen: golden digests
      and the benchmark compare them. *)

  val map :
    ?jobs:int ->
    ?budget:Budget.t ->
    ?describe:(int -> 'a -> descriptor) ->
    ?store:Cache.Store.t ->
    key:('a -> string) ->
    codec:'b Cache.Codec.t ->
    ('a -> 'b) ->
    'a array ->
    ('b, failure) result array
  (** Cache-aware {!map}: each element is looked up first, on the
      calling domain; only misses are dispatched to the domain pool; each
      fresh success is written back as soon as it completes, so a killed
      batch keeps its finished work. Results land in input order, and
      [describe] and [failure.index] see original indices, so the
      quarantine/replay contract is unchanged by how much of the batch
      was cached. [key] and the encoding run on worker domains; decoding
      runs inside {!Cache.Store.lookup}, which counts a payload [codec]
      rejects as corrupt and recomputes the task. *)
end
