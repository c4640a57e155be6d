(** The Theorem 2 experiment: the constructive vote-splitting adversary
    against biased-majority voting with k coin-flippers per round,
    measuring the forced product T x (R + T) against Omega(t^2 / log n). *)

type result = {
  n : int;
  t : int;
  coin_set : int;
  rounds : int;  (** T *)
  rand_calls : int;  (** R *)
  product : int;  (** T x (R + T) *)
  bound : float;  (** t^2 / log2 n (constants elided) *)
  decided : bool;
}

val run :
  ?seed:int ->
  ?budget:Supervise.Budget.t ->
  n:int ->
  t:int ->
  coin_set:int ->
  unit ->
  result
(** One run through {!Supervise.run}, judged as a consensus, under
    [budget] (unlimited by default). Raises {!Supervise.Breach} when the
    oracle rejects it or a budget is breached. *)

val run_avg :
  ?seeds:int -> n:int -> t:int -> coin_set:int -> unit -> float * float * float
(** Averages over seeds 1..[seeds]: (mean T, mean R, mean product). *)
