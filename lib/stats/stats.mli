(** Descriptive statistics and regression used for checking the *shape* of
    measured complexity curves against the paper's asymptotic claims. *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Sample variance (n-1 denominator). Raises [Invalid_argument] for fewer
    than two points — an undefined variance is a caller bug (insufficient
    samples), not a zero. *)

val stddev : float array -> float
(** [sqrt (variance xs)]; raises like {!variance} for fewer than two
    points. *)

val quantile : float -> float array -> float
(** Linear-interpolation quantile; [q] in [0, 1]. Sorts with
    [Float.compare]; raises [Invalid_argument] on an empty array, a [q]
    outside [0, 1] (NaN included), or any NaN input. *)

val median : float array -> float

type fit = { slope : float; intercept : float; r2 : float }

val linear_fit : float array -> float array -> fit
(** Ordinary least squares [y = slope * x + intercept]. Requires at least
    two points with non-degenerate xs. *)

val loglog_fit : float array -> float array -> fit
(** Fit [y = c * x^e] on log-log axes: [slope] is the exponent [e]. All
    coordinates must be positive. *)

val growth_exponent : ?log_power:int -> float array -> float array -> float
(** Growth exponent of [ys] versus [ns] after dividing out [log^k n] —
    compares a measured series against a claim like O(sqrt n * log^2 n).
    With [log_power > 0], any [n <= 1] raises [Invalid_argument]
    ([log 1 = 0] would otherwise divide to infinity and corrupt the fit). *)
