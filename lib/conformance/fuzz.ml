(** The fuzzing loop: generate scenarios, run the differential conformance
    suite on each, and on a violation greedily shrink to a minimal
    (n, t, strategy) counterexample with a [run --spec] replay line. *)

open Harness

type stats = {
  mutable scenarios : int;
  mutable runs : int;  (** protocol executions *)
  mutable checked : int;  (** executions with consensus properties asserted *)
  mutable determinism_checks : int;
}

type failure = {
  index : int;  (** soak index of [original] *)
  original : Scenario.t;
  shrunk : Scenario.t;
  violation : Runner.violation;
  entry : Registry.entry;
  shrink_steps : int;
}

let pp_failure ppf f =
  Fmt.pf ppf "violation %a@." Runner.pp_violation f.violation;
  Fmt.pf ppf "original : %s@." (Scenario.to_string f.original);
  Fmt.pf ppf "shrunk   : %s (%d shrink steps)@."
    (Scenario.to_string f.shrunk) f.shrink_steps;
  Fmt.pf ppf "replay   : %s@."
    (Run_spec.to_command (Runner.spec f.entry f.shrunk))

(* The counterexample's quarantine record. The shrunk scenario is re-run
   on the violating protocol with a [tail_rounds]-round tail and its full
   trace written into [dir]. Deterministic: the scenario is a pure
   function of its seed, so this is the run the soak saw. *)
let quarantine ~tail_rounds ~dir f =
  let id = f.entry.Registry.id in
  let path =
    Filename.concat dir (Printf.sprintf "fuzz-counterexample.%s.trace.jsonl" id)
  in
  let obs = Trace.Observers.create ~tail:tail_rounds ~file:path () in
  let r = Runner.run_entry ?trace:(Trace.Observers.sink obs) f.entry f.shrunk in
  Trace.Observers.close obs;
  ( {
      Supervise.index = f.index;
      label = "fuzz-counterexample/" ^ id;
      seed = Some f.original.seed;
      replay = Some (Run_spec.to_command r.spec);
      kind =
        Violated
          { property = f.violation.property; detail = f.violation.detail };
      elapsed_s = 0.;
      trace = Trace.Observers.tail_lines obs;
    },
    path )

(* A scenario "still fails" when it reproduces a violation of the same
   protocol and property — chasing a different bug mid-shrink would make
   the minimum meaningless. *)
let reproduces ~protocols (v : Runner.violation) s =
  let report = Runner.run ~protocols s in
  List.find_opt
    (fun (v' : Runner.violation) ->
      v'.protocol = v.protocol && v'.property = v.property)
    (Runner.report_violations report)

(* Greedy descent through [Scenario.shrink] candidates: take the first
   candidate that still reproduces the violation, repeat until none does
   (or a step cap, as a backstop against shrink cycles). Returns the
   minimum, its violation and the steps taken. *)
let minimise ?(max_steps = 300) ~protocols (v : Runner.violation) s =
  let rec go s v steps =
    if steps >= max_steps then (s, v, steps)
    else
      let candidates =
        List.filter
          (fun c -> Scenario.measure c < Scenario.measure s)
          (Scenario.shrink s)
      in
      match
        List.find_map
          (fun c ->
            match reproduces ~protocols v c with
            | Some v' -> Some (c, v')
            | None -> None)
          candidates
      with
      | Some (c, v') -> go c v' (steps + 1)
      | None -> (s, v, steps)
  in
  go s v 0

(* Each scenario is a pure function of [seed] and its index
   ([Sim.Rand.derive] off a never-advancing root), and the fold consumes
   batch results in index order, so the outcome is the serial loop's at
   any [jobs]. *)
let run ?(protocols = Registry.all) ?(count = 500) ?(seed = 1) ?max_n
    ?time_budget ?jobs ?(progress = fun _ -> ()) ?store () :
    (stats, failure * stats) result =
  let stats =
    { scenarios = 0; runs = 0; checked = 0; determinism_checks = 0 }
  in
  let root = Sim.Rand.create ~seed:(Int64.of_int seed) () in
  (* the store key: the scenario, the protocol set and which determinism
     check the rotation owes this index *)
  let protocols_sig =
    String.concat ","
      (List.sort compare (List.map (fun e -> e.Registry.id) protocols))
  in
  let started = Unix.gettimeofday () in
  let out_of_time () =
    match time_budget with
    | Some b -> Unix.gettimeofday () -. started > b
    | None -> false
  in
  let jobs = match jobs with Some j -> j | None -> Exec.default_jobs () in
  let batch = max 1 (jobs * 4) in
  (* which registry entry the serial loop's rotating determinism check
     would pick for scenario [i] — pure in (i, s) *)
  let det_entry i s =
    if i mod 25 <> 0 then None
    else
      match
        List.filter
          (fun e -> s.Scenario.n >= e.Registry.min_n && Registry.in_model e s)
          protocols
      with
      | [] -> None
      | l -> Some (List.nth l (i / 25 mod List.length l))
  in
  let scenario_of i = Scenario.generate ?max_n (Sim.Rand.derive root i) in
  let key i =
    let s = scenario_of i in
    Printf.sprintf "fuzz-scenario|%s|%s|det=%s" protocols_sig
      (Scenario.to_string s)
      (match det_entry i s with None -> "-" | Some e -> e.Registry.id)
  in
  (* payload: (runs, checked, det) *)
  let codec = Cache.Codec.(triple int int int) in
  (* scenario [i], its stats contribution and its first violation, if
     any: a conformance violation (to be shrunk) or else a determinism
     one (reported as found) *)
  let eval i =
    let s = scenario_of i in
    let report = Runner.run ~protocols s in
    let contribution det =
      ( List.length report.results,
        List.length (List.filter (fun r -> r.Runner.checked) report.results),
        det )
    in
    match Runner.report_violations report with
    (* the serial loop stops at a conformance violation before reaching
       the determinism check, so the replays are not spent *)
    | v :: _ -> (s, contribution 0, Some (v, `Shrink))
    | [] -> (
        match det_entry i s with
        | None -> (s, contribution 0, None)
        | Some e ->
            let det = Runner.determinism_violation e s in
            (s, contribution 1, Option.map (fun v -> (v, `Keep)) det))
  in
  let task i =
    match eval i with
    | _, c, None -> c
    | _, _, Some ((v : Runner.violation), _) ->
        raise
          (Supervise.Breach
             (Violated { property = v.property; detail = v.detail }))
  in
  let add (runs, checked, det) =
    stats.scenarios <- stats.scenarios + 1;
    stats.runs <- stats.runs + runs;
    stats.checked <- stats.checked + checked;
    stats.determinism_checks <- stats.determinism_checks + det
  in
  let exception Found of failure in
  try
    let i = ref 0 in
    while !i < count && not (out_of_time ()) do
      let lo = !i in
      let hi = min count (lo + batch) in
      Supervise.Cached.map ~jobs ?store ~key ~codec task
        (Array.init (hi - lo) (fun k -> lo + k))
      |> Array.iteri (fun k r ->
             let idx = lo + k in
             (match r with
             | Ok c -> add c
             | Error _ ->
                 (* re-evaluated here, where a harness exception
                    propagates and the violation is shrunk *)
                 let s, c, found = eval idx in
                 add c;
                 Option.iter
                   (fun (v, how) ->
                     let shrunk, violation, shrink_steps =
                       match how with
                       | `Shrink -> minimise ~protocols v s
                       | `Keep -> (s, v, 0)
                     in
                     let entry =
                       List.find
                         (fun e -> e.Registry.id = violation.Runner.protocol)
                         protocols
                     in
                     raise
                       (Found
                          { index = idx; original = s; shrunk; violation;
                            entry; shrink_steps }))
                   found);
             if (idx + 1) mod 50 = 0 then
               progress
                 (Printf.sprintf "%d scenarios, %d protocol runs, %d checked"
                    stats.scenarios stats.runs stats.checked));
      i := hi
    done;
    Ok stats
  with Found f -> Error (f, stats)
