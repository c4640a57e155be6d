(** Signature every consensus protocol implements.

    A protocol is a per-process deterministic state machine driven by the
    engine. Each round the engine calls {!BUFFERED.step_into} once per
    process (faulty processes included — omission-faulty processes follow
    the protocol, only their messages are filtered). The state machine
    never learns who is faulty: it only sees delivered messages, exactly as
    in the model. The engine hands the protocol its inbox as a reusable
    {!Mailbox.t} and [emit] sinks for outgoing messages, so the hot path
    builds no list cells. *)
module type BUFFERED = sig
  type state
  type msg

  val name : string

  val init : Config.t -> pid:int -> input:int -> state
  (** Initial state for process [pid] with input bit [input]. *)

  val step_into :
    Config.t ->
    state ->
    round:int ->
    inbox:msg Mailbox.t ->
    rand:Rand.t ->
    emit:(int -> msg -> unit) ->
    emit_all:(lo:int -> hi:int -> skip:int -> desc:bool -> msg -> unit) ->
    state
  (** Local-computation phase of [round] (rounds start at 1). [inbox] holds
      the previous round's deliveries sorted by sender and is only valid
      for the duration of this call. Each outgoing message is pushed with
      [emit dst msg]; a broadcast of one shared record to the pid range
      [lo..hi] (minus [skip]) goes through [emit_all] instead — the engine
      stores it as a single entry. [desc] declares the emission direction
      ([hi] down to [lo]); the emission order, with [emit_all] expanded in
      its declared direction, is the order the engine delivers and traces.
      All randomness must come from [rand]. *)

  val observe : state -> View.obs_core
  (** Full-information observation of the state, also used by the engine to
      detect termination ([decided]). *)

  val msg_bits : msg -> int
  (** Size of a message in bits, charged to communication complexity. Must
      be at least 1 (a message carries at least one bit). *)

  val msg_hint : msg -> int option
  (** Candidate value carried by the message, if meaningful; exposed to the
      adversary through {!View.envelope}. *)
end

type buffered = (module BUFFERED)

(** [emit_all] realised by pointwise [emit] calls, in its declared
    direction. *)
let emit_all_pointwise emit ~lo ~hi ~skip ~desc m =
  if desc then
    for dst = hi downto lo do
      if dst <> skip then emit dst m
    done
  else
    for dst = lo to hi do
      if dst <> skip then emit dst m
    done

(** The same protocol with every [emit_all] broadcast re-expanded into one
    pointwise [emit] per destination: the emission model from before
    broadcast segments existed. The engine must deliver and trace it
    exactly as the broadcast form, which the equivalence suite checks and
    the scale bench times. *)
let pointwise_emission (module P : BUFFERED) : buffered =
  (module struct
    include P

    let step_into cfg st ~round ~inbox ~rand ~emit ~emit_all:_ =
      P.step_into cfg st ~round ~inbox ~rand ~emit
        ~emit_all:(emit_all_pointwise emit)
  end)

(** Uniform constructor every protocol exports: the single way protocols
    enter the registry. [build] packs the protocol for a configuration;
    [rounds_needed] is the round bound the harness should allow for it
    (used as [max_rounds] head-room by the registry). *)
module type BUILDER = sig
  val name : string
  (** Registry id (also the CLI spelling). *)

  val build : Config.t -> buffered
  val rounds_needed : Config.t -> int
end

type builder = (module BUILDER)
