(** The canonical description of one protocol run.

    A [Run_spec.t] captures everything that determines a run's outcome:
    protocol, system size and fault budget, seed, adversary, input
    pattern, watchdog budget, and the optional lossy-link spec. Its {!to_string} serialization is canonical — fixed field
    order, one spelling per value, exact float round-trip — and is
    shared by the [consensus_sim run --spec] CLI, quarantine replay
    one-liners ({!to_command}) and the content-addressed cache key, so
    "the same run" means the same string everywhere.

    Trace options are deliberately {e not} part of the record: tracing
    is an observer and never changes an outcome, so two runs differing
    only in observation share one cache entry. Provenance is kept
    honest by the [cache-hit] trace event instead. *)

type t = {
  protocol : string;  (** registry id, or ["param"] (takes [x]) *)
  n : int;
  t_max : int;
  x : int option;  (** [param]'s generalization parameter *)
  seed : int;
  adversary : string;  (** one of {!Cli.adversary_names} *)
  inputs : string;  (** one of {!Cli.inputs_names} *)
  net : Net.Spec.t option;
  budget : Supervise.Budget.t;
}

val make :
  ?x:int ->
  ?adversary:string ->
  ?inputs:string ->
  ?net:Net.Spec.t ->
  ?budget:Supervise.Budget.t ->
  protocol:string ->
  n:int ->
  t_max:int ->
  seed:int ->
  unit ->
  t
(** Defaults: no [x], adversary ["none"], inputs ["mixed"], no net spec,
    unlimited budget. The result is not validated here; {!resolve} and
    {!execute} refuse what {!of_string} would reject. *)

val to_string : t -> string
(** Canonical serialization: 12 space-separated [k=v] tokens in a fixed
    order ([p n t x seed a i wall rounds msgs rand net]), ["-"]
    for absent options, the wall budget as a [%h] hex float so the
    round-trip is exact. Contains no tabs or newlines. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] is a one-line message. Checks the
    field order and the adversary and inputs spellings, then validates
    the spec: [n >= 1], [0 <= t < n], [1 <= x <= n] for ["param"] and [x]
    absent for every other protocol (so one run has one canonical
    string), every integer budget positive, and a wall budget finite and
    positive. {!resolve} applies the same validation to specs assembled
    with {!make}, such as the CLI's flag path. *)

val digest : t -> string
(** Hex digest of {!to_string} — a stable short name for the run. *)

val to_command : t -> string
(** A replay one-liner: [dune exec bin/consensus_sim.exe -- run --spec
    '<to_string>'] — the canonical serialization, directly executable. *)

val resolve : t -> (Sim.Protocol_intf.builder, string) result
(** The spec's protocol builder, after the validation {!of_string}
    applies; [Error] is the validation message, or lists the registered
    protocols plus ["param"]. *)

val config : t -> Sim.Protocol_intf.builder -> Sim.Config.t
(** The run's engine configuration: [max_rounds] is the builder's
    schedule length for (n, t_max, seed). *)

val adversary : t -> Sim.Adversary_intf.t
(** Raises [Invalid_argument] on a spelling {!of_string} would reject. *)

val inputs : t -> int array
(** The input pattern instantiated at (n, seed); ["random"] draws from a
    stream salted off the seed. Raises [Invalid_argument] on a bad
    spelling. *)

val execute :
  ?trace:Trace.Sink.t ->
  ?store:Cache.Store.t ->
  t ->
  ( Sim.Engine.outcome * Net.Degradation.t option,
    Supervise.failure_kind
    * (Sim.Engine.outcome * Net.Degradation.t option) option )
  result
(** Run the spec under supervision — through {!Supervise.Cached} keyed
    by {!to_string} when [store] is given, so repeated executions of an
    identical spec are served from the cache (with a [cache-hit] trace
    event). The degradation report rides along when the spec has a net.
    Raises [Invalid_argument] if {!resolve} fails. *)

(** Shared CLI parsing for the flag spellings common to
    [bin/consensus_sim] and [bench/main.exe]: budgets, [--net],
    [--cache]/[--resume]/[--no-cache]. Error behavior is
    identical on both surfaces — one line on stderr, exit 2. *)
module Cli : sig
  type budget_flags = { wall : float; rounds : int; msgs : int; rand : int }

  val no_budget : budget_flags
  (** All zero — every limit off. *)

  val budget_of_flags : budget_flags -> Supervise.Budget.t
  (** Zero or negative means unlimited, matching the historical flag
      semantics on both binaries. *)

  val net_or_die : string -> Net.Spec.t
  (** Parse a [--net] spec; on error print the parser's one-line message
      and exit 2. *)

  val store_of_flags :
    ?fingerprint:string ->
    resume:bool ->
    json:string option ->
    cache:string ->
    no_cache:bool ->
    unit ->
    Cache.Store.t option
  (** Open the run cache the [--cache DIR] / [--resume] / [--no-cache]
      flags select: [DIR] if given, else [<json>.cache] under
      [--resume]; [None] when neither applies or [--no-cache] is given.
      [--resume] without a [--json] path prints one line and exits 2.
      [fingerprint] is passed to {!Cache.Store.open_}. *)

  val adversary_names : string list
  val inputs_names : string list
end
