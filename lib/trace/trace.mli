(** Structured per-round event tracing.

    The paper's claims are statements about per-round resource flows —
    rounds, communication bits, random bits (Table 1) — so the trace layer
    is both the measurement instrument and the debugging tool: every send,
    delivery, omission, corruption, coin draw, state-phase transition and
    decision the engine executes can be emitted as a typed event into a
    pluggable {!Sink}.

    Design constraints:
    - {b zero cost when off}: the engine takes an [option]al sink and
      allocates nothing on the off path; this library never installs global
      state.
    - {b deterministic}: events carry no timestamps, so two runs with the
      same seed produce byte-identical traces at any [--jobs] width
      (wall-clock lives only in {!Metrics}, outside the event stream).
    - {b bounded capture}: {!Ring} / {!Tail} keep the newest events of
      the last K rounds in a preallocated buffer, a broadcast's runs at
      O(1) each, cheap enough to leave on for every supervised run so
      quarantine records ship with their trace tail. *)

module Event : sig
  (** One engine event. [round] is 1-based; counters in [Round_end] are the
      round's own deltas, not cumulative totals.

      Per-round order, as [Sim.Engine.run] emits it: [Round_start]; then
      per process in pid order [Coin] (when the counted source advanced),
      [Phase] (when the observable state changed) and [Decide] (on the
      decision transition); then one [Send] per message in ascending
      [src] order; [Corrupt] for each newly corrupted process in plan
      order; [Omit]/[Deliver] per message in delivery order (over a lossy
      link, a message's link events come before its [Deliver], or stand
      in for it when the link loses the message); and a [Round_end]
      carrying the round's metric deltas. The stream is a pure function of
      the run's inputs, with no timestamps, so equal-seed runs produce
      identical traces. The engine hands a broadcast segment's [Send]
      events, and each stretch of its [Omit] or [Deliver] events, to a
      sink as one run ({!Sink.sends}, {!Sink.fates}): the stream is the
      same, and a sink that stores runs ({!Ring}) pays O(1) per run.

      The events marked {e message-level} below ({!is_message}) are one per
      message or per link attempt; the rest are {e round-level}. A sink
      that takes only round-level events ({!Sink.rounds}) spares the
      engine reporting the message-level ones, and sees the same
      round-level events, in the same order, as a message-level sink
      would. No sink changes which delivery route a run takes. *)
  type t =
    | Round_start of { round : int }
    | Send of { round : int; src : int; dst : int; bits : int; hint : int option }
        (** message-level: a message handed to the communication phase
            (pre-adversary) *)
    | Corrupt of { round : int; pid : int }
        (** the adversary corrupted [pid] this round *)
    | Omit of { round : int; src : int; dst : int }
        (** message-level: the adversary suppressed this round's [src] ->
            [dst] message *)
    | Deliver of { round : int; src : int; dst : int }
        (** message-level: the message survived and will be consumed next
            round *)
    | Coin of { round : int; pid : int; calls : int; bits : int }
        (** [pid] drew from the counted random source during its local phase *)
    | Phase of { round : int; pid : int; operative : bool; candidate : int option }
        (** [pid]'s observable state changed (operative flag or candidate) *)
    | Decide of { round : int; pid : int; value : int }
    | Round_end of {
        round : int;
        messages : int;
        bits : int;
        omitted : int;
        rand_calls : int;
        rand_bits : int;
      }  (** per-round totals *)
    | Drop of { round : int; src : int; dst : int; attempt : int }
        (** message-level, as are the five link events after it: the link
            lost attempt [attempt] of this exchange (lib/net only; the
            engine never emits link events) *)
    | Dup of { round : int; src : int; dst : int; copies : int }
        (** the link delivered [copies] > 1 copies of one attempt *)
    | Delay of { round : int; src : int; dst : int; slots : int }
        (** one attempt arrived [slots] virtual sub-slots late *)
    | Retransmit of { round : int; src : int; dst : int; attempt : int; backoff : int }
        (** the synchronizer re-sent after waiting [backoff] sub-slots *)
    | Ack of { round : int; src : int; dst : int; attempt : int }
        (** the ack for attempt [attempt] reached the sender *)
    | Degrade of { round : int; src : int; dst : int; attempts : int }
        (** the retry budget ran dry: a residual loss, re-expressed as an
            induced omission (see [Net.Degradation]) *)
    | Cache_hit of { key : string }
        (** provenance marker: this run was not executed — its outcome was
            served from a content-addressed store under [key] (the hex
            digest). Emitted as the only event of the run, at round 0. *)

  val round : t -> int

  val is_message : t -> bool
  (** [true] for the message-level events: [Send], [Omit], [Deliver] and
      the link events. *)

  val equal : t -> t -> bool

  val to_json : t -> string
  (** One-line flat JSON object, no trailing newline, written by
      [Jsonl.add_obj]: ["ev"] (the constructor's wire name) first, then
      the record's fields in declaration order; a [None] is [null]. *)

  val of_json : string -> t option
  (** Parses a line {!to_json} writes (through [Jsonl.read], so field
      order and whitespace are free); [None] for anything else. *)
end

(** A run of message-level events: one event per destination of [lo ..
    hi] but [skip] (a [skip] outside the range skips nothing), ascending,
    or descending when [desc]. The engine reports a broadcast segment's
    [Send] events as one run, and each stretch of its destinations that
    share a verdict ([Omit] or [Deliver]) as another; every sink that
    expands a run expands it through {!iter}. *)
module Run : sig
  val size : lo:int -> hi:int -> skip:int -> int
  (** The number of events. *)

  val iter : lo:int -> hi:int -> skip:int -> desc:bool -> (int -> unit) -> unit
  (** [f dst] for each destination, in the run's order. *)
end

(** A pluggable event consumer. A sink is message-level or round-level
    (see {!Event}); the level is a property of how the sink was built. *)
module Sink : sig
  type t

  val make : emit:(Event.t -> unit) -> close:(unit -> unit) -> t
  (** A message-level sink, as are {!memory}, {!file} and the
      {!Ring} and {!Tail} sinks. Its {!send}, {!omit} and {!deliver}
      build the event and pass it to [emit], and its {!sends} and
      {!fates} one event per destination of the run, in {!Run.iter}
      order, so [emit] sees every event, in the same order, whichever
      entry point the producer used. *)

  val emit : t -> Event.t -> unit

  val send :
    t -> round:int -> src:int -> dst:int -> bits:int -> hint:int option -> unit
  (** [send s ~round ~src ~dst ~bits ~hint] is
      [emit s (Send { round; src; dst; bits; hint })], field-wise: the
      engine's entry point for message-level events, so a sink that
      stores fields ({!Ring}, {!Tail}) builds no event. [send s] is the
      sink's own entry point and allocates nothing: a walk binds it once
      and pays one indirect call per event. *)

  val omit : t -> round:int -> src:int -> dst:int -> unit
  (** [emit s (Omit { round; src; dst })], field-wise, bound as {!send}. *)

  val deliver : t -> round:int -> src:int -> dst:int -> unit
  (** [emit s (Deliver { round; src; dst })], field-wise, bound as
      {!send}. *)

  val sends :
    t -> round:int -> src:int -> lo:int -> hi:int -> skip:int -> desc:bool ->
    bits:int -> hint:int option -> unit
  (** The [Send] events of one run ({!Run}), all with [bits] and [hint]:
      [send] for each destination in {!Run.iter} order, bound as {!send}.
      The engine reports each broadcast segment's [Send] events this
      way, so a sink that stores runs pays one call per segment. *)

  val fates :
    t -> round:int -> src:int -> lo:int -> hi:int -> skip:int -> desc:bool ->
    omitted:bool -> unit
  (** The [Omit] events ([omitted]) or [Deliver] events of one run:
      {!omit} or {!deliver} for each destination in {!Run.iter} order,
      bound as {!send}. *)

  val close : t -> unit

  val messages : t -> bool
  (** Whether the sink is message-level. *)

  val null : t
  (** Round-level: it consumes nothing. *)

  val rounds : t -> t
  (** The sink fed only the round-level events; round-level. Its
      message-level entry points do nothing. *)

  val tee : t -> t -> t
  (** Message-level when either side is. Round-level events go to both
      sides, and message-level calls (per event or per run) only to the
      sides that are message-level: a tee of a tail and a round-level
      metrics sink pays one call per message-level event or run. *)

  val memory : unit -> t * (unit -> Event.t list)
  (** In-memory sink for tests: the second component returns the events
      recorded so far, oldest first. *)

  val file : path:string -> t
  (** Opens [path] and writes each event as its {!Event.to_json} line
      plus a newline, straight into the file's channel; [close] flushes
      and closes the file, and a second [close] does nothing. *)
end

(** Preallocated event ring: keeps the newest [capacity] events, allocates
    only at creation. A single [Send], [Omit] or [Deliver] is stored as
    immediates, a kind and five int columns per slot, and a run
    ({!Sink.sends}, {!Sink.fates}) as one slot ([Omit]/[Deliver]) or two
    ([Send]) in the same columns, whatever its length; {!to_list} rebuilds
    the events, losslessly for every int and for [hint = None]. Storing
    one allocates nothing and costs amortized O(1), through {!add} or the
    sink's field-wise and run entry points. Every other event is stored as the
    value it was added as. The ring evicts from its oldest end, a run
    event by event: a run may be partly evicted, and one longer than the
    ring keeps its newest [capacity] events. *)
module Ring : sig
  type t

  val create : capacity:int -> t
  val capacity : t -> int

  val length : t -> int
  (** Events retained, at most [capacity]. *)

  val add : t -> Event.t -> unit

  val to_list : t -> Event.t list
  (** Oldest first. *)

  val sink : t -> Sink.t
  (** Message-level; its field-wise and run entry points write the
      columns directly. *)
end

(** Last-K-rounds capture over a {!Ring} — what quarantine records ship
    with. The ring bounds it by events, not rounds: a round with more
    events than [capacity] (a broadcast round at n above about 90, at the
    default capacity) leaves only its newest events. *)
module Tail : sig
  type t

  val create : ?capacity:int -> rounds:int -> unit -> t
  (** [capacity] bounds the event count (default 8192); [rounds] is the
      number of trailing rounds reported by {!events}. *)

  val sink : t -> Sink.t

  val events : t -> Event.t list
  (** The retained events of the last [rounds] distinct rounds, oldest
      first: at most [capacity] events, so the oldest of those rounds may
      be cut. *)

  val lines : t -> string list
  (** {!events} rendered as JSONL lines. *)
end

(** Per-round counters and a run summary derived from the event stream. *)
module Metrics : sig
  type per_round = {
    round : int;
    messages : int;
    bits : int;
    omitted : int;
    corruptions : int;
    coin_calls : int;
    coin_bits : int;
    decisions : int;
    wall_s : float;  (** wall-clock spent in this round (collector-side) *)
  }

  type summary = {
    rounds : int;
    messages : int;
    bits : int;
    omitted : int;
    corruptions : int;
    coin_calls : int;
    coin_bits : int;
    decisions : int;
    max_round_messages : int;
    max_round_bits : int;
    max_round_coin_bits : int;
    wall_total_s : float;
    per_round : per_round list;  (** chronological *)
  }

  val collector : ?clock:(unit -> float) -> unit -> Sink.t * (unit -> summary)
  (** A round-level sink that folds the stream into per-round counters;
      call the second component after the run for the summary. [clock]
      defaults to [Unix.gettimeofday]; pass a constant clock for
      deterministic summaries. *)

  val of_events : Event.t list -> summary
  (** Fold a recorded event list (deterministic: wall times are 0). *)

  val pp_summary : Format.formatter -> summary -> unit
end

(** A run's observers teed into one sink: a last-[tail]-rounds {!Tail}
    (when [tail > 0]), a {!Metrics.collector} on [clock] (when [metrics])
    and a {!Sink.file} at [file]. *)
module Observers : sig
  type t

  val create :
    ?tail:int -> ?metrics:bool -> ?clock:(unit -> float) -> ?file:string ->
    unit -> t

  val sink : t -> Sink.t option
  (** [None] when nothing is requested, so an untraced run builds no
      event. Round-level with metrics alone; message-level with a tail
      or a file. *)

  val tail_lines : t -> string list
  (** Empty without a tail. *)

  val summary : t -> Metrics.summary option

  val close : t -> unit
  (** Closes the file; idempotent. *)
end

(** Whole-trace files, one JSONL event per line, as {!Sink.file} writes
    them. *)
module File : sig
  exception Corrupt of string

  val read : string -> Event.t list
  (** Blank lines are skipped. Raises {!Corrupt} on a line {!Event.of_json}
      rejects. *)
end

(** First-diverging-event comparison — the debuggable form of the test
    suite's "bit-identical" claims. *)
module Diff : sig
  type divergence = {
    index : int;  (** 0-based position of the first differing event *)
    left : Event.t option;  (** [None]: the left trace ended here *)
    right : Event.t option;  (** [None]: the right trace ended here *)
  }

  type outcome = Identical of int  (** event count *) | Diverged of divergence

  val events : Event.t list -> Event.t list -> outcome
  val pp_outcome : Format.formatter -> outcome -> unit
end
