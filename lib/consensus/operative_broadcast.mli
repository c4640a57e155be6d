(** Operative-partition reliable broadcast — the Section 6 "future
    directions" concept: a designated source disseminates its input bit
    over the Theorem-4 expander with the GroupBitsSpreading operative
    discipline. If the source stays operative, every operative process
    delivers within O(log n) rounds and O(n log^2 n) bits despite t
    adaptive omission faults; processes that hear nothing decide the
    default 0 at the timeout. *)

type state
type msg

val protocol_buffered :
  ?params:Params.t -> ?source:int -> Sim.Config.t -> Sim.Protocol_intf.buffered

val builder : ?params:Params.t -> ?source:int -> unit -> Sim.Protocol_intf.builder
(** Registry constructor: id ["operative-broadcast"] (default source 0);
    schedule bound [2 log2_ceil n + 3]. *)
