(** One process's links on a spreading expander, under the operative rule
    of Algorithm 3 (Appendix B.1) that Algorithm 4's decision flood and
    Section 6's operative broadcast reuse: a neighbour silent in a slot is
    disregarded for good, and a process that hears fewer than Delta/3 live
    neighbours in a slot loses its operative status. Whether the rule runs
    once a process is inoperative is the caller's choice. A slot is
    {!start}, one {!hear} per message, then {!close}; none allocates. *)

type t

val create : ?offset:int -> Expander.t -> int -> t
(** [create g v]: the links of vertex [v]. Vertex [u] is pid
    [offset + u] ([offset] defaults to 0). *)

val none : unit -> t
(** No links: {!close} always keeps the status. *)

val start : t -> unit

val hear : t -> int -> bool
(** The message from this pid counts: it is a neighbour not disregarded.
    Senders ascending by pid are found in O(1) amortised. *)

val close : t -> bool
(** Disregard every neighbour not heard this slot; [true] iff at least
    Delta/3 live neighbours were heard. *)

val emit_live : t -> (int -> 'm -> unit) -> 'm -> unit
(** Emit to every live neighbour, descending by pid. *)
