(** Deterministic omission-tolerant consensus used as the paper's line-18
    fallback (standing in for Dolev-Strong, which needs a PKI the omission
    model does not provide — DESIGN.md, substitution 3).

    4t+2 phases of two rounds each: participants broadcast values, then the
    phase's king broadcasts the majority it saw; a participant keeps its
    majority when the count clears m/2 + 2t and otherwise adopts the king.
    Correct in the two situations Lemma 11 needs: participants = the whole
    operative set (counts separate, some king among pids 0..4t+1 is a
    non-faulty participant), or an arbitrary participant set with unanimous
    inputs (omission faults cannot forge contents, so every message carries
    the common value). *)

type msg = Value of int | King of int

type t

val phases : t_max:int -> int
(** 4 t + 2. *)

val rounds : t_max:int -> int
(** Engine rounds occupied: two per phase. The decision needs one further
    {!finalize_into} call on the following round's inbox. *)

val create :
  n:int -> t_max:int -> pid:int -> participating:bool -> input:int -> t
(** Non-participants stay silent and never decide. *)

val step_into :
  t ->
  local_round:int ->
  iter:((int -> msg -> unit) -> unit) ->
  emit_all:(lo:int -> hi:int -> skip:int -> desc:bool -> msg -> unit) ->
  unit
(** Local rounds are 1-based up to [rounds ~t_max]; odd rounds broadcast
    values (after applying the previous king's verdict), even rounds count
    and let the king speak. [iter f] must call [f src m] for every inbox
    message in delivery order (a mailbox, or a filtered view of one,
    iterates directly — no intermediate list). Every emission is a full
    broadcast, so outgoing messages go through [emit_all] (ascending
    destination order, one shared record). *)

val finalize_into : t -> iter:((int -> msg -> unit) -> unit) -> t
(** Consume the last king message and fix the decision; same [iter]
    contract as {!step_into}. A participant that received no fallback
    message during the whole run ends with [decision = None] instead of
    echoing its own value — the caller owns that residue (Algorithm 1
    lines 18-19). *)

val decision : t -> int option

val value : t -> int
(** Current working value — what {!finalize_into} would decide when the
    participant has heard at least one message. *)

val heard : t -> bool
(** Whether any fallback message has been received this run. *)

val msg_bits : msg -> int

val protocol_buffered : Sim.Config.t -> Sim.Protocol_intf.buffered
(** Phase-king as a standalone protocol: all processes participate; the
    decision lands at round [rounds ~t_max + 1] (the finalize round).
    Deterministic, omission-tolerant for t < n/6. *)

val rounds_needed : Sim.Config.t -> int
(** Engine rounds the standalone protocol needs: [rounds ~t_max + 1]. *)

val builder : Sim.Protocol_intf.builder
(** Registry constructor: id ["phase-king"]; schedule bound
    [rounds_needed + 1]. *)
