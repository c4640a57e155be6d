(** Counted deterministic random source.

    The paper's randomness-complexity metric counts (a) the number of calls to
    the random source and (b) the total number of random bits drawn. Every
    stream created from the same {!Counter.t} charges that counter, so the
    engine can hold one counter per run and protocols cannot forget to
    account for the randomness they use. *)

module Counter : sig
  type t

  val create : unit -> t
  val calls : t -> int
  val bits : t -> int
  val reset : t -> unit
end

type t

val create : ?counter:Counter.t -> seed:int64 -> unit -> t
(** A fresh stream. If [counter] is omitted a private counter is used
    (suitable for adversaries and tests, whose randomness is not charged to
    the algorithm). *)

val derive : t -> int -> t
(** [derive t i] is an independent stream determined by [t]'s seed and [i].
    It shares [t]'s counter. Deriving does not consume [t]. *)

val derive_into : into:t -> t -> int -> unit
(** [derive_into ~into t i] reseeds [into] so that it behaves exactly like
    [derive t i], without allocating a stream. [into] keeps its own counter,
    so it should have been created from [t]'s counter (e.g. via [derive]) for
    the accounting to remain shared. *)

val counter : t -> Counter.t

val bit : t -> int
(** One call to the source, one random bit (0 or 1). *)

val bits : t -> int -> int
(** [bits t k] is one call drawing [k] bits ([1 <= k <= 62]), returned as a
    non-negative integer. *)

val int_below : t -> int -> int
(** [int_below t m] is one call returning a uniform value in [0, m), by
    rejection sampling over the smallest [k] with [2^k >= m]. Every draw
    attempt consumes (and charges) [k] bits — rejected draws included — so
    the counted bits match the randomness actually drawn from the source;
    only the call count stays at one. *)

val float : t -> float
(** One call returning a uniform float in [0, 1). *)

val chance : t -> float -> bool
(** [chance t p] is [float t < p]: the same draw, the same charge and one
    call, but nothing is allocated, where [float] boxes its result. Use it
    for a coin that lands [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** Fisher-Yates shuffle; charges one call per element (plus any rejection
    re-draw bits, as in {!int_below}). *)
