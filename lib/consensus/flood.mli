(** Classic deterministic flooding consensus for the crash model: t+1
    rounds of value-set flooding, decide the minimum. Baseline for the
    Omega(t^2)-messages row of Table 1 only — its validity condition does
    not hold under general omissions (see the module implementation notes),
    so tests exercise it under crash adversaries. *)

type state
type msg

val protocol_buffered : Sim.Config.t -> Sim.Protocol_intf.buffered
(** One shared message record per broadcast, sent as a single
    [emit_all] entry. *)

val builder : Sim.Protocol_intf.builder
(** Registry constructor: id ["flood"]; schedule bound [t_max + 3]. *)
