(** Subquadratic-communication consensus for the *crash* model — the
    Appendix B.3 comparison point: Algorithm 1's voting core with the
    Theta(n^2) line-14 broadcast replaced by once-per-link expander gossip
    plus a straggler help/reply exchange (legal against crashes, where
    silence is unambiguous; impossible against omissions by the
    Dolev-Reischuk / Abraham et al. bounds). Crash-model guarantees only. *)

type state
type msg

val protocol_buffered :
  ?params:Params.t -> Sim.Config.t -> Sim.Protocol_intf.buffered

val rounds_needed : ?params:Params.t -> Sim.Config.t -> int

val builder : ?params:Params.t -> unit -> Sim.Protocol_intf.builder
(** Registry constructor: id ["crash-sub"]; schedule bound
    [rounds_needed + 10]. *)
