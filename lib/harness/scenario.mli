(** A fuzzing scenario: a full, replayable description of one differential
    run. Serializes to a single shell-safe token [n/t/seed/bits/strategy]
    so a failing case prints as a one-line replay command. *)

type t = {
  n : int;
  t_max : int;
  seed : int;
  inputs : int array;  (** length [n], bits *)
  strategy : Adversary.Strategy.t;
}

val make :
  n:int ->
  t_max:int ->
  seed:int ->
  inputs:int array ->
  strategy:Adversary.Strategy.t ->
  t
(** Validates the same invariants as {!Sim.Config.make} plus the input
    vector; raises [Invalid_argument] otherwise. *)

val bits : t -> string
(** The input vector as [n] characters ['0'] / ['1'], pid 0 first. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** Inverse of {!to_string}; raises {!Parse_error} on malformed input. *)

val gen_strategy : Sim.Rand.t -> n:int -> crash:bool -> depth:int -> Adversary.Strategy.t
(** Random strategy term for an [n]-process system. [crash] restricts to
    the crash-compatible sub-algebra, so the result always satisfies
    {!Adversary.Strategy.crash_compatible}. *)

val generate : ?max_n:int -> ?crash_bias:float -> Sim.Rand.t -> t
(** Draw a scenario: n in [4, max_n] (default 40), t below ~n/4, a seed,
    an input pattern (unanimous / mixed / single-dissent / random), and a
    strategy term. With probability [crash_bias] (default 0.5) the strategy
    comes from the crash-compatible sub-algebra, so the crash-model
    baselines get coverage too. *)

val shrink : t -> t list
(** Structurally smaller candidates for the greedy minimiser. *)

val measure : t -> int
(** Size measure used to order shrink candidates. *)
