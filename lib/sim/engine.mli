(** The synchronous round engine with an adaptive full-information omission
    adversary — the execution model of Section 2 of the paper.

    Per round: (1) every process runs its local-computation phase, drawing
    from a counted random source; (2) the adversary inspects everything —
    states, fresh coins, pending messages — and picks new corruptions
    (within the lifetime budget [t_max]) plus per-edge omissions at faulty
    endpoints; (3) surviving messages are delivered for the next round.

    Model enforcement: a plan that omits a message between two non-faulty
    processes, or corrupts beyond the budget, raises {!Illegal_plan}. *)

exception Illegal_plan of string

type outcome = {
  decisions : int option array;
  faulty : bool array;  (** final fault set *)
  rounds_total : int;  (** rounds actually executed *)
  decided_round : int option;
      (** first round by whose local phase every non-faulty process had
          decided — the paper's time metric; [None] if [max_rounds] hit *)
  messages_sent : int;
  bits_sent : int;  (** omitted messages still count: the sender sent them *)
  messages_omitted : int;
  rand_calls : int;  (** calls to the random source (Theorem 2's R) *)
  rand_bits : int;  (** total random bits drawn *)
  faults_used : int;
}

type progress = {
  p_round : int;  (** rounds executed so far *)
  p_messages : int;
  p_bits : int;
  p_rand_calls : int;
  p_rand_bits : int;
}
(** Cumulative metric counters handed to the [stop] watchdog after each
    round. *)

val all_nonfaulty_decided : outcome -> bool

val agreed_decision : outcome -> int option
(** The common decision of the non-faulty processes, or [None] if any is
    undecided or two disagree. *)

type instance
(** A reusable engine instance for one (protocol, cfg) pair: every buffer
    the round loop needs — per-pid mailboxes, the adversary view,
    omission scratch — is allocated by {!instance} and reused by each
    {!run_instance} call. Sweeps and benches that execute
    many runs of the same configuration amortise buffer construction to
    zero; each run resets all per-run state first, so outcomes and traces
    are bit-identical to fresh {!run} runs. *)

val instance : Protocol_intf.buffered -> Config.t -> instance

val run_instance :
  ?stop:(progress -> bool) ->
  ?trace:Trace.Sink.t ->
  ?link:Link_intf.t ->
  instance ->
  adversary:Adversary_intf.t ->
  inputs:int array ->
  outcome
(** One run through a reusable instance — same contract as {!run}. An instance is not thread-safe: one run at a time. *)

val run :
  ?stop:(progress -> bool) ->
  ?trace:Trace.Sink.t ->
  ?link:Link_intf.t ->
  Protocol_intf.buffered ->
  Config.t ->
  adversary:Adversary_intf.t ->
  inputs:int array ->
  outcome
(** Execute a run: a pure function of [(protocol, adversary, cfg, inputs)].
    Stops when every non-faulty process has decided or at [max_rounds].
    [stop] is the watchdog hook: consulted after every round with the
    cumulative counters, and returning [true] ends the run with the same
    semantics as hitting [max_rounds] ([decided_round] stays [None]);
    {!Supervise} uses it to enforce message/randomness/wall-clock
    budgets.

    [trace], if given, receives the run's structured event stream, in the
    order {!Trace.Event} documents. The sink never picks the delivery
    route: only [link] and the plan's {!View.omission} form do. A
    round-level sink ({!Trace.Sink.rounds}, e.g. a [Trace.Metrics]
    collector) gets no message-level event, so none is built. When
    [trace] is absent no event is constructed (tracing is zero-cost
    off).

    [link], if given, is the lossy-link transport hook (see
    {!Link_intf}): it is reset from the run seed before the first round,
    notified at the start of every round's communication phase, and
    consulted once per message the adversary let through. A [Lost] verdict
    drops the message like an omission but is {e not} model-checked (no
    {!Illegal_plan}) and not counted in [messages_omitted] — residual link
    losses are the transport layer's to account for as induced omission
    faults. When [link] is absent the delivery loop is unchanged and
    allocation-free (the link layer is zero-cost off).

    Raises [Invalid_argument] if [inputs] is not an n-vector of bits.

    The engine runs on reusable preallocated buffers (mailboxes, a single
    in-place-refreshed adversary view); [run] builds a fresh {!instance}
    for the one run. A {!View.t} and everything
    reachable from it is only valid during the adversary call that
    received it. *)
