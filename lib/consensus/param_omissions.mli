(** ParamOmissions — Algorithm 4 (Theorem 3 / Theorem 8): the randomness /
    time trade-off. x super-processes of size ceil(n/x) run the truncated
    voting {!Core} in round-robin phases; decisions are flooded over the
    global expander and adopted as inputs for later phases; the safety rule
    of lines 15-30 (one counting exchange + decision broadcast + phase-king
    residue) lifts whp-agreement to probability 1.

    With T ~ sqrt(n x) rounds the sub-runs spend ~n^2/T random bits —
    Table 1, row Thm 3. *)

type state
type msg

val protocol_buffered :
  ?params:Params.t -> x:int -> Sim.Config.t -> Sim.Protocol_intf.buffered
(** [x] is the super-process count, clamped to what the partition allows. *)

val rounds_needed : ?params:Params.t -> x:int -> Sim.Config.t -> int
(** Total schedule length, for sizing [Config.max_rounds]. *)

val builder : ?params:Params.t -> x:int -> unit -> Sim.Protocol_intf.builder
(** Registry constructor: id ["param-x<x>"]; schedule bound
    [rounds_needed + 10]. *)
