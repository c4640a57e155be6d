(** What the full-information adaptive adversary sees each round, and the
    intervention it may order.

    The adversary intervenes between the local-computation phase and the
    communication phase: it has already seen the random bits drawn this round
    (they are reflected in [candidate] / [used_randomness]) and the messages
    the processes are about to send, and only then picks new corruptions and
    omissions.

    Allocation discipline: the engine allocates one view per run and
    refreshes it in place each round — the [obs] records, the [faulty]
    snapshot array and the [envelope] records are all reused. A view (and
    everything reachable from it) is therefore only valid for the duration
    of the adversary call that received it; an adversary that needs state
    across rounds must copy what it keeps, never stash the view. *)

type obs_core = {
  candidate : int option;  (** current candidate decision bit, if any *)
  operative : bool;  (** protocol-level operative status (paper's notion) *)
  decided : int option;  (** final decision once taken *)
}

type obs = {
  pid : int;
  mutable core : obs_core;
  mutable used_randomness : bool;
      (** accessed the random source this round *)
}

type envelope = {
  mutable src : int;
  mutable dst : int;
  mutable bits : int;  (** message size charged to communication complexity *)
  mutable hint : int option;  (** candidate value carried, when meaningful *)
}

type t = {
  mutable round : int;
  cfg : Config.t;
  faulty : bool array;
      (** fault set before this round's intervention (snapshot, refreshed in
          place each round) *)
  mutable faults_used : int;
  obs : obs array;
  mutable envelopes : envelope array;
      (** all messages produced this round; the array is exact-length for
          the round but its records live in a reused arena. Read through
          {!val-envelopes}: the engine fills the arena lazily, so the field
          is only valid when [envelopes_ready] *)
  mutable envelopes_ready : bool;
  mutable refresh_envelopes : unit -> envelope array;
      (** installed by the engine; expands this round's pending messages
          (broadcasts included) into the envelope arena *)
}

(** The round's pending messages, one envelope per (src, dst) pair —
    broadcasts expanded. The engine materialises the array on first access
    each round. Tracing never reads it, so an adversary that never looks
    at the envelopes never pays for them. *)
let envelopes t =
  if not t.envelopes_ready then begin
    t.envelopes <- t.refresh_envelopes ();
    t.envelopes_ready <- true
  end;
  t.envelopes

(** Compiled per-sender omission verdict: what the adversary does to one
    sender's messages this round, decidable without a per-destination
    closure call. [Omit_mask b] drops exactly the destinations whose byte
    in [b] is non-zero ([b] is indexed by pid, length n). *)
type mask = Deliver_all | Omit_all | Omit_mask of Bytes.t

type plan = {
  new_faults : int list;
      (** processes to corrupt now; lifetime total must stay within t_max *)
  omit : int -> int -> bool;
      (** [omit src dst]: drop this round's message from [src] to [dst].
          Must return [false] whenever neither endpoint is faulty — the
          engine enforces this. *)
  compiled : (int -> mask) option;
      (** per-sender compiled form of [omit], when the strategy can
          precompute it: [compiled src] must agree with [omit src dst] for
          every [dst], and must not draw randomness or otherwise depend on
          call order. Without a link the engine delivers by it (mask-blit
          delivery with aggregate counters), traced or not; over a link
          it reads [omit] instead. Strategies whose predicate
          draws randomness per call — where the draw order is part of the
          observable bit-stream — must leave it [None]. *)
}

(** Plan with only the pointwise predicate — the compatibility
    constructor for hand-written strategies and tests. *)
let pointwise ~new_faults ~omit = { new_faults; omit; compiled = None }

let no_op =
  {
    new_faults = [];
    omit = (fun _ _ -> false);
    compiled = Some (fun _ -> Deliver_all);
  }
