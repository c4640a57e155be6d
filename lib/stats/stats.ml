(** Small descriptive-statistics toolkit used by the benches and tests to
    check the *shape* of measured complexity curves (growth exponents on
    log-log axes, confidence that one series dominates another, ...). *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  (* A sample variance over fewer than two points is undefined; silently
     returning 0 masked insufficient-sample bugs in bench seed-averaging. *)
  if n < 2 then invalid_arg "Stats.variance: need at least two samples";
  let m = mean xs in
  let acc = Array.fold_left (fun a x -> a +. ((x -. m) ** 2.)) 0. xs in
  acc /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let quantile q xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty";
  (* NaN fails every comparison, so range-check by negation; a NaN q or
     input would otherwise slip through and poison the interpolation. *)
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Stats.quantile: q outside [0,1]";
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Stats.quantile: NaN input")
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let pos = q *. float_of_int (n - 1) in
  (* clamp: float rounding in [q *. (n-1)] must never index past n-1 *)
  let clamp i = if i < 0 then 0 else if i > n - 1 then n - 1 else i in
  let lo = clamp (int_of_float (floor pos))
  and hi = clamp (int_of_float (ceil pos)) in
  if lo = hi then sorted.(lo)
  else begin
    let w = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. w)) +. (sorted.(hi) *. w)
  end

let median xs = quantile 0.5 xs

type fit = { slope : float; intercept : float; r2 : float }

(** Ordinary least squares y = slope*x + intercept. *)
let linear_fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0. then invalid_arg "Stats.linear_fit: degenerate xs";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let r2 = if !syy = 0. then 1. else !sxy *. !sxy /. (!sxx *. !syy) in
  { slope; intercept; r2 }

(** Fit y = c * x^e on log-log axes; returns the exponent fit. Points with
    non-positive coordinates are rejected. *)
let loglog_fit xs ys =
  Array.iter
    (fun x -> if x <= 0. then invalid_arg "Stats.loglog_fit: x <= 0")
    xs;
  Array.iter
    (fun y -> if y <= 0. then invalid_arg "Stats.loglog_fit: y <= 0")
    ys;
  linear_fit (Array.map log xs) (Array.map log ys)

(** Growth exponent of [ys] as a function of [ns], with the polylogarithmic
    factor [log^k n] divided out first — used to compare a measured series
    against a claimed complexity like O(sqrt n * log^2 n). *)
let growth_exponent ?(log_power = 0) ns ys =
  if log_power > 0 then
    Array.iter
      (fun n ->
        (* log 1 = 0: dividing by (log n)^k would feed inf/NaN into
           loglog_fit and silently corrupt the fitted exponent *)
        if n <= 1. then
          invalid_arg "Stats.growth_exponent: n <= 1 with log_power > 0")
      ns;
  let adjust n y = y /. (log n ** float_of_int log_power) in
  let ys' = Array.mapi (fun i y -> adjust ns.(i) y) ys in
  (loglog_fit ns ys').slope
