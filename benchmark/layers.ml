(* Per-layer spans for the layered pass.

   The engine calls [step_into] n times per round in pid order, then runs
   its decide scan and view refresh, then the adversary's plan, then
   delivery. Wrapping [step_into] and the adversary's plan closure gives
   four boundaries per round:

   - round start: the first [step_into] call of the round;
   - step end: return from the n-th [step_into] call;
   - plan start / plan end: entry to and exit from the adversary's plan.

   A round ends at the next round's first step, or when the run returns.
   The four boundaries therefore tile each round into the phases [step],
   [observe], [adversary] and [deliver]. The clock and the allocation
   counter are read only at these boundaries, never once per message, so
   the wrappers cost O(1) per process step and O(1) per round. Time from
   the run call to its first step (per-run state reset) falls outside
   every round; [run] reports the covered share of the wall time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated by the calling domain, on every heap. [Gc.minor_words]
   reads the allocation pointer, so it is exact between collections;
   [quick_stat]'s own minor count lags until the next one. Direct major
   allocations (big arrays) are [major - promoted]. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Words allocated by every domain, including joined ones. The forced
   minor collection brings the calling domain's sampled count up to
   date; joined domains were folded in when they exited. For pass and
   run boundaries only, never inside a round. *)
let all_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let phases = [| "step"; "observe"; "adversary"; "deliver" |]
let step = 0
let observe = 1
let adversary = 2
let deliver = 3
let outside = 4

type t = {
  ns : int array;  (** per phase, plus [outside] *)
  words : float array;
  last_words : float array;
      (** one slot; a float field of this mixed record would be boxed on
          every store *)
  mutable cur : int;
  mutable since : int;
  mutable calls : int;  (** [step_into] calls so far this round *)
}

let create () =
  {
    ns = Array.make 5 0;
    words = Array.make 5 0.;
    last_words = [| 0. |];
    cur = outside;
    since = 0;
    calls = 0;
  }

let reset t =
  Array.fill t.ns 0 5 0;
  Array.fill t.words 0 5 0.

(* The [quick_stat] record one [words] call allocates. A boundary reads
   the counter after allocating it, so it lands in the phase the
   boundary closes and is taken off there. *)
let probe_words =
  let a = words () in
  let b = words () in
  b -. a

let mark t next =
  let now = now_ns () in
  let w = words () in
  let c = t.cur in
  t.ns.(c) <- t.ns.(c) + (now - t.since);
  t.words.(c) <- t.words.(c) +. (w -. t.last_words.(0) -. probe_words);
  t.cur <- next;
  t.since <- now;
  t.last_words.(0) <- w

let before_step t = if t.calls = 0 then mark t step

let after_step t ~n =
  if t.calls = n - 1 then begin
    t.calls <- 0;
    mark t observe
  end
  else t.calls <- t.calls + 1

(* Same protocol, with the two step boundaries marked. *)
let protocol t (module P : Sim.Protocol_intf.BUFFERED) :
    Sim.Protocol_intf.buffered =
  (module struct
    include P

    let step_into cfg st ~round ~inbox ~rand ~emit ~emit_all =
      before_step t;
      let st = P.step_into cfg st ~round ~inbox ~rand ~emit ~emit_all in
      after_step t ~n:cfg.Sim.Config.n;
      st
  end)

(* Same strategy, with the plan call marked. *)
let adversary_of t (a : Sim.Adversary_intf.t) : Sim.Adversary_intf.t =
  {
    a with
    create =
      (fun cfg rand ->
        let plan = a.create cfg rand in
        fun view ->
          mark t adversary;
          let p = plan view in
          mark t deliver;
          p);
  }

(* Run [f] (one engine run through wrapped parts) and return its result,
   its wall time in ns and the share of that time the four phases
   cover. *)
let run t f =
  t.calls <- 0;
  t.cur <- outside;
  let out0 = t.ns.(outside) in
  t.last_words.(0) <- words ();
  t.since <- now_ns ();
  let t0 = t.since in
  let r = f () in
  mark t outside;
  let wall = t.since - t0 in
  let uncovered = t.ns.(outside) - out0 in
  (r, wall, 1. -. (float_of_int uncovered /. float_of_int (max 1 wall)))

(* The per-phase metrics over [runs] layered runs totalling [rounds]
   rounds, plus the lowest per-run span coverage. *)
let report t r ~runs ~rounds ~coverage =
  let rounds = float_of_int (max 1 rounds) in
  let inside = float_of_int (t.ns.(0) + t.ns.(1) + t.ns.(2) + t.ns.(3)) in
  Array.iteri
    (fun i name ->
      Report.add r ~samples:runs (name ^ ".ns_per_round") "ns"
        (float_of_int t.ns.(i) /. rounds);
      Report.add r ~samples:runs (name ^ ".share") "fraction"
        (float_of_int t.ns.(i) /. Float.max 1. inside);
      Report.add r ~samples:runs (name ^ ".words_per_round") "words"
        (t.words.(i) /. rounds))
    phases;
  Report.add r ~samples:runs "span_coverage" "fraction" coverage
    ?flag:(if coverage < 0.99 then Some "phases cover under 99% of a run" else None)
