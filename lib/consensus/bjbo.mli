(** Biased-majority randomized consensus in the style of Bar-Joseph and
    Ben-Or (PODC'98) — the crash-model baseline of Table 1 row [10] and
    the algorithm the Theorem-2 adversary plays against.

    [coin_set_size] limits which processes (pids below it) may flip coins —
    the randomness-starved variants of experiment T1-thm2. [theta_factor]
    scales the lean threshold theta = ceil(f * sqrt n); deciding requires
    clearing N/2 + t + theta, which no two processes can do for different
    values under t crashes. Crash-model guarantees only. *)

type state
type msg

val protocol_buffered :
  ?coin_set_size:int ->
  ?theta_factor:float ->
  Sim.Config.t ->
  Sim.Protocol_intf.buffered

val builder :
  ?coin_set_size:int -> ?theta_factor:float -> unit -> Sim.Protocol_intf.builder
(** Registry constructor: id ["bjbo"]; schedule bound [60 (t_max + 10)]
    (whp termination is much earlier). *)
