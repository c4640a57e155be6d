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

type msg =
  | Value of int
  | King of int
  | Decided of int  (** line 18: a fallback decider's decision *)
  | Other
      (** what a caller's {!wire} reads its own messages as; never sent,
          and ignored by every reader *)

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
  wrap:(msg -> 'm) ->
  emit_all:(lo:int -> hi:int -> skip:int -> desc:bool -> 'm -> unit) ->
  unit
(** Local rounds are 1-based up to [rounds ~t_max]; odd rounds broadcast
    values (after applying the previous king's verdict), even rounds count
    and let the king speak. [iter f] must call [f src m] for every inbox
    message in delivery order. Every emission is a full broadcast of one
    record, passed through [wrap] (the caller's message constructor) and
    handed to [emit_all] (ascending destination order). *)

val finalize_into : t -> iter:((int -> msg -> unit) -> unit) -> t
(** Consume the last king message and fix the decision; same [iter]
    contract as {!step_into}. A participant that received no fallback
    message during the whole run ends with [decision = None] instead of
    echoing its own value; {!advance} resolves that residue. *)

val decision : t -> int option

val value : t -> int
(** Current working value — what {!finalize_into} would decide when the
    participant has heard at least one message. *)

val heard : t -> bool
(** Whether any fallback message has been received this run. *)

val msg_bits : msg -> int
val msg_hint : msg -> int option

(** {1 The tail of Algorithm 1 (lines 17-19)}

    Optimal_omissions, Param_omissions and Crash_subquadratic end alike:
    operative undecided processes run phase-king as participants; a
    participant that finalizes with a decision broadcasts it as [Decided]
    (line 18); idle processes adopt the first [Decided] that reaches them
    (line 19). A participant that heard nothing ends undecided, and its
    next round is the residue round: it adopts the first [Decided] in its
    inbox, else self-decides its working value (correct for the lone
    participant, whose value is the agreed one by the line-15 adoption). *)

type 'm wire = { wrap : msg -> 'm; unwrap : 'm -> msg }
(** How a caller's messages carry {!msg}; [unwrap] reads every other
    message of the caller as [Other]. *)

type outcome = Running | Decides of int | Undecided

val start :
  'm wire ->
  n:int ->
  t_max:int ->
  pid:int ->
  participating:bool ->
  input:int ->
  emit_all:(lo:int -> hi:int -> skip:int -> desc:bool -> 'm -> unit) ->
  t
(** Enter the tail at its local round 1, on an empty inbox. *)

val advance :
  'm wire ->
  t ->
  inbox:'m Sim.Mailbox.t ->
  emit_all:(lo:int -> hi:int -> skip:int -> desc:bool -> 'm -> unit) ->
  outcome
(** The tail's next round; call it every round until [Decides]. A
    participant steps, then finalizes one round after the last phase and
    broadcasts [Decided], or returns [Undecided]: a caller that keeps
    calling runs the residue round next. *)

val protocol_buffered : Sim.Config.t -> Sim.Protocol_intf.buffered
(** Phase-king as a standalone protocol: all processes participate; the
    decision lands at round [rounds ~t_max + 1] (the finalize round).
    Deterministic, omission-tolerant for t < n/6. *)

val rounds_needed : Sim.Config.t -> int
(** Engine rounds the standalone protocol needs: [rounds ~t_max + 1]. *)

val builder : Sim.Protocol_intf.builder
(** Registry constructor: id ["phase-king"]; schedule bound
    [rounds_needed + 1]. *)
