(** Early-stopping (early-deciding) consensus for the crash model: decide
    at the first *clean* round (heard-from set did not shrink), hence in
    O(f+2) rounds for f actual crashes instead of the fixed t+1 — the
    adaptive-runtime baseline the paper's related work ([33, 34]) studies
    in the omission setting. Crash-model guarantees only. *)

type state
type msg

val protocol_buffered : Sim.Config.t -> Sim.Protocol_intf.buffered

val builder : Sim.Protocol_intf.builder
(** Registry constructor: id ["early-stopping"]; schedule bound
    [t_max + 5]. *)
