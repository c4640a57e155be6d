(** Compositional, serializable adversary-strategy algebra, the one
    implementation of every structured adversary: terms are generated,
    shrunk, printed, re-parsed for replay, and compiled to legal
    {!Sim.Adversary_intf.t} adversaries (the compiled closure clamps
    corruptions to the budget and only omits at faulty endpoints, so
    {!Sim.Engine.Illegal_plan} can never fire). *)

type target =
  | Pids of int list  (** explicit processes (out-of-range ids ignored) *)
  | Lowest of int  (** the [k] lowest-numbered live processes *)
  | Random of int  (** [k] uniformly random live processes *)
  | Flippers of int  (** [k] live processes that drew randomness this round *)
  | Holders of int * int  (** [k] live holders of candidate bit [b] *)
  | Majority of int  (** [k] live holders of the current majority candidate *)
  | Group of int  (** a majority of sqrt-decomposition group [g] *)
  | Senders of int
      (** the live processes other than [v] with a message pending to [v]
          this round, ascending *)

type drop =
  | Out  (** omit the victims' outgoing messages (crash semantics) *)
  | In  (** omit the victims' incoming messages *)
  | All  (** omit every message incident to a victim *)
  | Flip of int  (** each incident message independently, percent chance *)
  | Intra  (** only messages between two victims *)
  | Half  (** omit victims' outgoing messages to the lower half of pids *)
  | ToHolders of int
      (** omit victims' outgoing messages to current holders of candidate
          bit [b] — the Lemma-15-style adaptive split *)
  | Local
      (** messages between a victim and a member of the victim's own
          sqrt-decomposition group *)
  | Link of int  (** messages between a victim and process [v] *)

type t =
  | Idle
  | Strike of target * drop
      (** corrupt the target (once, on first activation) and apply the drop
          to the accumulated victim set while active *)
  | Seq of t list  (** element [r-1] is active at round [r]; last persists *)
  | From of int * t  (** body active from round [r] on *)
  | Until of int * t  (** body active through round [r] *)
  | Both of t * t  (** union of two strategies *)
  | Again of t  (** re-evaluate the body's strikes every active round *)

val size : t -> int
(** Structural weight (constructors plus leaf complexity), chosen so every
    {!shrink} candidate is strictly smaller — the measure the greedy
    counterexample minimiser descends. *)

val crash_compatible : t -> bool
(** Whether the strategy stays inside the crash model: every strike is
    outgoing-silencing (or total) and active until the end of the run, so a
    victim never speaks again. The crash-model baselines are only checked
    against strategies satisfying this. *)

val to_string : t -> string
(** Compact textual form, re-read by {!of_string} — the replay codec. *)

val pp : Format.formatter -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** Inverse of {!to_string}. Raises {!Parse_error} on malformed input. *)

val shrink : t -> t list
(** Structurally smaller candidates for the greedy minimiser. *)

val compile : ?name:string -> t -> Sim.Adversary_intf.t
(** Compile to an engine adversary named [name]. Always legal;
    deterministic given the engine's adversary seed. A round states its
    omissions as per-sender masks ({!Sim.View.Masks}), unless a [Flip]
    strike is in force: that round is a {!Sim.View.Predicate}, since its
    coin per message is drawn in the engine's message order. *)
