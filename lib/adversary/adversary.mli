(** Adaptive full-information adversary strategies, generic over the
    protocol: they read the per-process observations and pending messages
    and return corruptions plus per-edge omissions. The engine enforces
    legality; strategies stay within the budget themselves. *)

module Strategy = Strategy
(** The strategy algebra: every structured adversary below is one
    compiled term of it. *)

val none : Sim.Adversary_intf.t

val crash_schedule : (int * int list) list -> Sim.Adversary_intf.t
(** [(round, pids); ...]: crash the pids at the given rounds (silent from
    then on). Victims beyond the remaining budget are dropped, and so are
    out-of-range pids. *)

val random_omission : p_omit:float -> Sim.Adversary_intf.t
(** Corrupt [t_max] uniformly-chosen processes at round 1, then omit each
    of their incident messages independently with probability [p_omit]. *)

val group_killer : ?group:int -> unit -> Sim.Adversary_intf.t
(** Corrupt a majority of one sqrt-decomposition group (contiguous pids)
    and silence all their intra-group traffic: the group's aggregation
    quorum collapses and its survivors go inoperative — Figure 2's faulty
    process, scaled up. Clamped to the budget. *)

val eclipse : victim:int -> Sim.Adversary_intf.t
(** Corrupt the processes observed sending to [victim] and omit exactly
    their exchanges with it: with enough budget the victim drops below
    Delta/3 live links and goes inoperative without being faulty itself —
    the non-faulty-but-inoperative case the paper's partition handles.
    Needs [t_max] above the victim's degree to fully eclipse. *)

val vote_splitter : ?slack:int -> unit -> Sim.Adversary_intf.t
(** The Theorem 2 lower-bound strategy (Lemmas 13-15), with crash faults
    only: each round it crashes the |imbalance| - [slack] majority-value
    holders (coin-flippers first — the Lemma-12 coin game) and crashes one
    further process mid-round, delivering its vote to half the survivors so
    the two halves compute opposite majorities (Lemma 15's bivalence
    split). Budget drains at ~sqrt(k log n) + 1 per round. *)

val staggered_crash : per_round:int -> Sim.Adversary_intf.t
(** Crash [per_round] random live processes each round until the budget
    runs out. *)

val standard_suite : n:int -> Sim.Adversary_intf.t list
(** The strategies exercised by the integration test grid. *)

val chaotic :
  ?corrupt_rate:float -> ?omit_rate:float -> unit -> Sim.Adversary_intf.t
(** Chaos monkey: random corruptions over time and random per-message
    omissions at faulty endpoints — the strategy the property-based tests
    sweep over seeds. *)

val pointwise : Sim.Adversary_intf.t -> Sim.Adversary_intf.t
(** The same strategy with every plan's omissions decoded into a
    per-message predicate ({!Sim.View.omits}), forcing the engine onto the
    general per-message delivery path. Observable behaviour is unchanged;
    the equivalence suite and the scale bench's classic column use this
    to compare the two paths. *)
