(** Lossy-link transport: the reduction from real-world link faults back to
    the paper's omission model.

    The paper (and {!Sim.Engine}) assumes a perfect synchronous network:
    the only message loss is the adaptive omission adversary's. A production
    network also drops, duplicates, delays and burst-loses messages on its
    own. This layer plugs into the engine's {!Sim.Link_intf} delivery hook
    and (1) injects seeded link faults, (2) recovers the synchronous round
    abstraction with a per-(sender, receiver, round) ack/retransmit
    synchronizer under capped exponential backoff, and (3) re-expresses the
    residual losses the retry budget could not mask as an {e induced
    omission adversary} composed with the run's configured adversary.

    Soundness condition of the reduction: the run is still within the
    source-paper model iff [|adversarial faults ∪ induced faults| <= t].
    {!Degradation.of_transport} computes that effective fault set; a run
    beyond it must be reported as degraded (see [Supervise.run ~net]), never
    as a consensus result.

    Determinism: all link randomness comes from a private stream salted off
    the run seed — no wall clock, not charged to the protocol's counted
    source — so runs are bit-identical at any [--jobs] width and the
    protocol's randomness metrics are unchanged by the link layer. A spec
    with all fault probabilities at 0 draws nothing and emits nothing:
    outcome and trace are byte-identical to a linkless run. *)

module Spec : sig
  type t = {
    drop : float;  (** i.i.d. per-leg loss probability *)
    dup : float;  (** probability a delivered data leg arrives twice *)
    delay : float;  (** probability a delivered data leg arrives late *)
    delay_max : int;  (** late arrivals cost 1..delay_max extra sub-slots *)
    stall : float;  (** per-round probability a process goes quiet *)
    stall_len : int;  (** rounds a stalled process stays quiet *)
    burst_to_bad : float;  (** Gilbert–Elliott good->bad transition; 0 = off *)
    burst_to_good : float;  (** Gilbert–Elliott bad->good transition *)
    burst_drop : float;  (** loss probability while in the bad state *)
    retries : int;  (** retransmissions after the first attempt *)
    backoff_base : int;  (** sub-slots before the first retransmit *)
    backoff_cap : int;  (** backoff ceiling: min(cap, base * 2^(k-1)) *)
  }

  val default : t
  (** All fault probabilities 0; [retries = 4], [backoff = 1:8]. *)

  val zero_fault : t -> bool
  (** True iff every fault probability is 0 — the transport then draws no
      randomness and emits no event, and runs are byte-identical to linkless
      ones. *)

  val of_string : string -> (t, string) result
  (** Parses the [--net] syntax: comma-separated [key=value] fields over
      {!default}, with ':'-separated sub-fields — [drop=P], [dup=P],
      [delay=P[:MAX]], [stall=P[:LEN]], [burst=TO_BAD:TO_GOOD:DROP],
      [retries=N], [backoff=BASE[:CAP]]. Malformed input (unknown key,
      probability outside [0,1], bad arity) yields [Error] with a one-line
      message naming the offending key. *)

  val to_string : t -> string
  (** Canonical spec string ([of_string (to_string s) = Ok s]); ["drop=0"]
      for the all-default spec. *)

  val pp : Format.formatter -> t -> unit
end

module Transport : sig
  type t
  (** Mutable per-run link state: fault-model chains, retry accounting,
      virtual-slot clock, residual-loss log. Reusable across runs — the
      engine calls [reset] through the link hook at every run start. *)

  type stats = {
    attempts : int;  (** data-leg transmissions, first attempts included *)
    retransmits : int;
    drops : int;  (** lost legs, data and ack *)
    dups : int;
    delays : int;
    stalls : int;  (** stall onsets *)
    residual : int;  (** exchanges lost beyond the retry budget *)
    residual_edges : (int * int * int) list;
        (** (round, src, dst) per residual loss, chronological *)
    rounds : int;
    active_rounds : int;  (** rounds that carried at least one exchange *)
    slots : int;  (** total virtual sub-slots; fault-free exchange = 2 *)
  }

  val create : Spec.t -> Sim.Config.t -> t
  val reset : t -> seed:int -> unit
  val stats : t -> stats
  val spec : t -> Spec.t

  val link : t -> Sim.Link_intf.t
  (** The engine-facing hook. Pass to [Sim.Engine.run ?link]. *)
end

module Degradation : sig
  type t = {
    spec : Spec.t;
    attempts : int;
    retransmits : int;
    drops : int;
    dups : int;
    delays : int;
    stalls : int;
    residual : int;
    rounds : int;
    active_rounds : int;
    slots : int;
    induced_per_pid : int array;
        (** residual edges incident to each pid (an edge charges both
            endpoints) *)
    induced_faulty : int list;
        (** greedy vertex cover of the residual edges between
            adversary-non-faulty pids: the smallest induced fault set
            explaining every unmasked loss *)
    adversarial_faulty : int list;  (** the run adversary's final fault set *)
    effective_faulty : int list;  (** sorted union of the two *)
    t_max : int;
    beyond_model : bool;  (** [|effective_faulty| > t_max] *)
  }

  val of_transport : Transport.t -> faulty:bool array -> t_max:int -> t
  (** Snapshot the transport after a run and compose its induced faults
      with the adversary's ([faulty] is the outcome's final fault set). *)

  val greedy_cover : n:int -> (int * int) list -> int list
  (** Exposed for tests: highest-degree-first (lowest pid on ties) vertex
      cover, ascending blame order. *)

  val to_json : t -> string
  (** One-line flat JSON object (degradation-record schema in
      EXPERIMENTS.md). *)

  val pp : Format.formatter -> t -> unit
end
