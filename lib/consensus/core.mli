(** The voting core of OptimalOmissionsConsensus (Algorithm 1, lines 1-16),
    reusable over an arbitrary member set so that Algorithm 4 can run it
    inside each super-process.

    Each epoch = GroupBitsAggregation (Algorithm 2: ceil(log2 S) stages of
    the 3-round GroupRelay over the sqrt-decomposition, Figure 2) followed
    by GroupBitsSpreading (Algorithm 3: expander gossip of the per-group
    operative counts, Figure 1) and the biased-majority vote update
    (Figure 3). After the last epoch comes the line-14 decision-broadcast
    slot; {!finalize_into} consumes it (lines 15-16). *)

type counts = { ones : int; zeros : int }

val counts_zero : counts
val counts_add : counts -> counts -> counts

type msg =
  | Counts of { stage : int; bag : int; c : counts }
      (** GroupRelay round A: a source broadcasts its bag's counts *)
  | Confirm of { stage : int }  (** round B: transmitter acknowledgment *)
  | Result of { stage : int; left : counts option; right : counts option }
      (** round C: per-recipient relay of the children-bag counts *)
  | Spread_delta of (int * counts) list
      (** spreading gossip; [] is a heartbeat *)
  | Final of int  (** line-14 decision broadcast *)

type slot = Agg_a of int | Agg_b of int | Agg_c of int | Spread of int | Bcast

(** One vote-update record per operative process per epoch (the Figure 3
    bench trace). *)
type vote_event = {
  ev_pid : int;
  ev_epoch : int;
  ev_ones : int;
  ev_zeros : int;
  ev_rule : string;  (** "one" | "zero" | "coin", with "+decided" suffix *)
}

type shared = {
  members : int array;
  m : int;
  index_of : (int, int) Hashtbl.t;
  part : Groups.t;
  graph : Expander.t option;
  delta : int;
  op_threshold : int;
  stages : int;
  spread_rounds : int;
  epochs : int;
  epoch_len : int;
  schedule : slot array;
  vote_log : vote_event list ref option;
  contig : bool;
      (** member pids form a contiguous ascending range — whole-instance
          broadcasts then go out as one range entry *)
  final_broadcast : bool;
}

val make_shared :
  ?vote_log:vote_event list ref ->
  ?final_broadcast:bool ->
  members:int array ->
  seed:int ->
  params:Params.t ->
  t_max:int ->
  unit ->
  shared
(** Shared structures (partition, trees, Theorem-4 expander, schedule) — a
    pure function of (members, seed, params), hence identical at every
    process without communication. *)

val rounds : shared -> int
(** Schedule length: epochs * epoch_len + 1 (the broadcast slot). *)

type t

val create : shared -> pid:int -> input:int -> t
val candidate : t -> int

val set_candidate : t -> int -> unit
(** Override the candidate before stepping — Algorithm 4's sub-runs start
    from the value adopted in earlier round-robin phases. *)

val operative : t -> bool
val decided_flag : t -> bool
(** The line-12 safety flag. *)

val got_decision : t -> bool
(** Holds a line-14/15 decision after {!finalize_into}. *)

val step_into :
  t ->
  slot:int ->
  iter:((int -> msg -> unit) -> unit) ->
  rand:Sim.Rand.t ->
  emit:(int -> msg -> unit) ->
  emit_all:(lo:int -> hi:int -> skip:int -> desc:bool -> msg -> unit) ->
  unit
(** Run local slot 1..[rounds]; mutates the state. [iter f] must call
    [f src m] for every inbox message in delivery order (a mailbox, or a
    filtered view of one, iterates directly — no intermediate list);
    outgoing messages go to [emit], addressed to global pids.
    Full-group and full-instance broadcasts of one shared record go
    through [emit_all] (descending ranges, matching the historical
    reverse-member wire order) whenever the relevant pid set is
    contiguous. *)

val finalize_into : t -> iter:((int -> msg -> unit) -> unit) -> unit
(** Consume the broadcast slot's inbox (lines 15-16); same [iter] contract
    as {!step_into}. Call exactly once, on the round after the schedule
    ends. *)

val line16_decision : t -> int option
(** The decision line 16 permits right after {!finalize_into}: the own value if
    the decided flag is armed, the adopted value for inoperative processes
    that received one, [None] for operative undecided processes (which must
    enter the deterministic fallback). *)

val msg_bits : shared -> msg -> int
val msg_hint : msg -> int option
