(** What the full-information adaptive adversary sees each round, and the
    intervention it may order.

    The adversary intervenes between the local-computation phase and the
    communication phase: it has already seen the random bits drawn this round
    (they are reflected in [candidate] / [used_randomness]) and the messages
    the processes are about to send, and only then picks new corruptions and
    omissions.

    Allocation discipline: the engine allocates one view per run and
    refreshes it in place each round — the [obs] records and the [faulty]
    snapshot array are reused. A view (and everything reachable from it)
    is therefore only valid for the duration of the adversary call that
    received it; an adversary that needs state across rounds must copy
    what it keeps, never stash the view. *)

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

type t = {
  mutable round : int;
  cfg : Config.t;
  faulty : bool array;
      (** fault set before this round's intervention (snapshot, refreshed in
          place each round) *)
  mutable faults_used : int;
  obs : obs array;
  iter_envelopes : (int -> int -> int -> int option -> unit) -> unit;
      (** [iter_envelopes f] calls [f src dst bits hint] once per message
          pending this round, broadcasts expanded: senders ascending, each
          sender's messages in reverse emission order. [bits] is the size
          charged to communication complexity, [hint] the candidate value
          carried, when meaningful. Installed by the engine; the walk
          reads the outboxes directly, so an adversary that never calls it
          never pays for it. *)
}

(** Per-sender omission verdict: what the adversary does to one sender's
    messages this round, decidable without a per-destination closure
    call. [Omit_mask b] drops exactly the destinations whose byte in [b]
    is non-zero ([b] is indexed by pid, length n). *)
type mask = Deliver_all | Omit_all | Omit_mask of Bytes.t

(** This round's omissions, stated once.
    - [Masks m]: [m src] is the verdict for every message [src] sends. It
      must not draw randomness or otherwise depend on call order. The
      engine takes it once per sender and reads its per-message verdicts
      in the sender's closure-free walk (none for an untraced, linkless
      [Deliver_all]), traced or not.
    - [Predicate p]: [p src dst] drops this round's message from [src] to
      [dst]. The engine asks it once per message, senders ascending and
      each sender's messages in emission order — strategies that draw
      randomness per call, where the draw order is part of the observable
      bit-stream, must use this form.

    Either way a verdict may drop a message only when one endpoint is
    faulty; the engine enforces this. *)
type omission = Masks of (int -> mask) | Predicate of (int -> int -> bool)

type plan = {
  new_faults : int list;
      (** processes to corrupt now; lifetime total must stay within t_max *)
  omit : omission;
}

(** [omits o src dst]: whether [o] drops the message from [src] to [dst].
    Apply it to [o] once and reuse the result: the decoded predicate is
    built on that first application. *)
let omits = function
  | Predicate p -> p
  | Masks m -> (
      fun src dst ->
        match m src with
        | Deliver_all -> false
        | Omit_all -> true
        | Omit_mask b -> Bytes.get b dst <> '\000')

(** Plan with a per-message predicate — the compatibility constructor for
    hand-written strategies and tests. *)
let pointwise ~new_faults ~omit = { new_faults; omit = Predicate omit }

let no_op = { new_faults = []; omit = Masks (fun _ -> Deliver_all) }
