(** Tunable constants of the paper's algorithms.

    The paper's constants (Delta = 832 log n, 8 log n spreading rounds,
    (t / sqrt n) log n epochs) are calibrated for asymptotic proofs and are
    unusable at simulation scale (832 log2 1024 > n). We keep every Theta(.)
    shape and expose the constants; defaults are chosen so that the
    mechanisms the proofs rely on (quorums, dense cores, good epochs) hold
    at n in the hundreds-to-thousands range. See DESIGN.md, substitution 1. *)

type epochs_spec =
  | Auto of float
      (** [Auto f]: ceil(f * max(1, t/sqrt n) * log2 n) epochs — the paper's
          (t / sqrt n) log n shape. *)
  | Fixed of int

type t = {
  delta_c : int;  (** expander expected degree = delta_c * ceil(log2 n) *)
  spread_c : int;  (** spreading rounds = spread_c * ceil(log2 n) *)
  epochs : epochs_spec;
  graph_attempts : int;  (** resampling attempts for a Theorem-4 graph *)
}

let default =
  { delta_c = 8; spread_c = 1; epochs = Auto 1.0; graph_attempts = 30 }

(* A loop, not a local [let rec]: a local recursive function that
   captures [n] is a closure, allocated on every call without flambda,
   and message pricing reaches this once per message. *)
let log2_ceil n =
  if n <= 1 then 1
  else begin
    let acc = ref 0 and cap = ref 1 in
    while !cap < n do
      incr acc;
      cap := !cap * 2
    done;
    !acc
  end

let delta t ~n = min (n - 1) (max 4 (t.delta_c * log2_ceil n))
let spread_rounds t ~n = max 2 (t.spread_c * log2_ceil n)

let epoch_count t ~n ~t_max =
  match t.epochs with
  | Fixed e -> max 1 e
  | Auto f ->
      let sqrt_n = sqrt (float_of_int n) in
      let ratio = Float.max 1. (float_of_int t_max /. sqrt_n) in
      (* the +4 cushion matters at small n: after the votes unify, one more
         epoch must observe the unanimous counts to arm the decided flag *)
      4
      + max 1 (int_of_float (ceil (f *. ratio *. float_of_int (log2_ceil n))))
