(** OptimalOmissionsConsensus — Algorithm 1 (Theorem 1 / Theorem 5): the
    voting {!Core} over all n processes, the decision broadcast (lines
    14-16), and the deterministic {!Phase_king} fallback (line 18) for the
    polynomially-unlikely undecided residue.

    Guarantees (for t < n/30, scaled constants): probability-1 agreement,
    validity and termination against any adaptive omission adversary;
    whp O((t/sqrt n) log^2 n) rounds, O(n (t log^3 n + n)) communication
    bits, and at most one random bit per operative process per epoch. *)

type state
type msg

val protocol_buffered :
  ?params:Params.t ->
  ?vote_log:Core.vote_event list ref ->
  Sim.Config.t ->
  Sim.Protocol_intf.buffered
(** Build the protocol for a configuration. The shared structures are
    computed once here from (n, seed, params). [vote_log] collects one
    event per operative process per epoch for the Figure-3 bench. *)

val rounds_needed : ?params:Params.t -> Sim.Config.t -> int
(** Upper bound on the schedule length (voting + fallback), for sizing
    [Config.max_rounds]. *)

val builder :
  ?params:Params.t ->
  ?vote_log:Core.vote_event list ref ->
  unit ->
  Sim.Protocol_intf.builder
(** Registry constructor: id ["optimal"]; schedule bound
    [rounds_needed + 10]. Every protocol it builds logs into
    [vote_log]. *)
