(** The voting core of OptimalOmissionsConsensus (Algorithm 1, lines 1-16),
    run over the pid range [lo, lo+m) so that Algorithm 4 can run it inside
    each super-process.

    Each epoch = GroupBitsAggregation (Algorithm 2: ceil(log2 S) stages of
    the 3-round GroupRelay over the sqrt-decomposition, Figure 2) followed
    by GroupBitsSpreading (Algorithm 3: expander gossip of the per-group
    operative counts, Figure 1) and the biased-majority vote update
    (Figure 3). After the last epoch comes the line-14 decision-broadcast
    slot; {!finalize_into} consumes it (lines 15-16). *)

type counts = { ones : int; zeros : int }

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
  lo : int;  (** first member pid: local index [l] is pid [lo + l] *)
  m : int;
  part : Groups.t;  (** over local indices 0..m-1 *)
  graph : Expander.t option;
  stages : int;
  spread_rounds : int;
  epochs : int;
  epoch_len : int;
  schedule : slot array;
  vote_log : vote_event list ref option;
  final_broadcast : bool;
  b_count : int;  (** bits of one count: ceil(log2 (group size + 1)) *)
  b_stage : int;  (** bits of a stage index: ceil(log2 (stages + 1)) *)
  b_group : int;  (** bits of a group index: ceil(log2 (groups + 1)) *)
}

val make_shared :
  ?vote_log:vote_event list ref ->
  ?final_broadcast:bool ->
  lo:int ->
  m:int ->
  seed:int ->
  params:Params.t ->
  t_max:int ->
  unit ->
  shared
(** Shared structures of the instance over pids [lo, lo+m) (partition,
    trees, Theorem-4 expander, schedule) — a pure function of (lo, m, seed,
    params), hence identical at every process without communication. *)

val rounds : shared -> int
(** Schedule length: epochs * epoch_len + 1 (the broadcast slot). *)

val schedule_length : params:Params.t -> t_max:int -> int -> int
(** [schedule_length ~params ~t_max m] is {!rounds} of a {!make_shared}
    over [m] members with these [params] and [t_max], computed without
    building the partition or the expander. *)

type t

val create : shared -> pid:int -> input:int -> t
(** Raises [Invalid_argument] if [pid] is outside [lo, lo+m). *)

val local_of : t -> int -> int option
(** Local index [pid - lo] of a global pid; [None] outside [lo, lo+m). *)

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
  wrap:(msg -> 'm) ->
  emit:(int -> 'm -> unit) ->
  emit_all:(lo:int -> hi:int -> skip:int -> desc:bool -> 'm -> unit) ->
  unit
(** Run local slot 1..[rounds]; mutates the state. [iter f] must call
    [f src m] for every inbox message in delivery order (a mailbox, or a
    filtered view of one, iterates directly — no intermediate list);
    outgoing messages go to [emit], addressed to global pids. Each record
    is passed through [wrap] (the caller's message constructor) exactly
    once: a broadcast or a spreading delta goes to all its destinations
    as one wrapped record.
    Full-group and full-instance broadcasts of one shared record go
    through [emit_all] as descending ranges, matching the historical
    reverse-member wire order. *)

val finalize_into : t -> iter:((int -> msg -> unit) -> unit) -> unit
(** Consume the broadcast slot's inbox (lines 15-16); same [iter] contract
    as {!step_into}. The read ends at the first [Final] from a member,
    which is adopted: [f] raises {!Sim.Mailbox.Stop} there, caught by a
    mailbox's [iter] or else by [finalize_into]. Call exactly once, on
    the round after the schedule ends. *)

val line16_decision : t -> int option
(** The decision line 16 permits right after {!finalize_into}: the own value if
    the decided flag is armed, the adopted value for inoperative processes
    that received one, [None] for operative undecided processes (which must
    enter the deterministic fallback). *)

val msg_bits : shared -> msg -> int
val msg_hint : msg -> int option
