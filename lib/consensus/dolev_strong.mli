(** Dolev-Strong authenticated consensus ([15], Theorem 4) — the paper's
    40-year-old deterministic comparator: n parallel signed broadcasts,
    t+2 rounds, O(n^2 t) messages, probability 1 against any t < n faults
    under (simulated) authentication. The Theta(n)-rounds corner of Table 1
    that Theorem 1 escapes. *)

type state
type msg

val protocol_buffered : Sim.Config.t -> Sim.Protocol_intf.buffered
(** One shared message record per relayed chain, sent as a single
    [emit_all] entry. *)

val builder : Sim.Protocol_intf.builder
(** Registry constructor: id ["dolev-strong"]; schedule bound [t_max + 3]. *)
