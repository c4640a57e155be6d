(** The fuzzing loop: generate scenarios, run the differential conformance
    suite on each, and on a violation greedily shrink to a minimal
    (n, t, strategy) counterexample with a one-line replay command. *)

type stats = {
  mutable scenarios : int;
  mutable runs : int;  (** protocol executions *)
  mutable checked : int;  (** executions with consensus properties asserted *)
  mutable determinism_checks : int;
}

let stats_zero () =
  { scenarios = 0; runs = 0; checked = 0; determinism_checks = 0 }

type failure = {
  original : Scenario.t;
  shrunk : Scenario.t;
  violation : Runner.violation;
  shrink_steps : int;
}

let replay_command s =
  Printf.sprintf "consensus_sim replay -s '%s'" (Scenario.to_string s)

let pp_failure ppf f =
  Fmt.pf ppf "violation %a@." Runner.pp_violation f.violation;
  Fmt.pf ppf "original : %s@." (Scenario.to_string f.original);
  Fmt.pf ppf "shrunk   : %s (%d shrink steps)@."
    (Scenario.to_string f.shrunk) f.shrink_steps;
  Fmt.pf ppf "replay   : %s@." (replay_command f.shrunk)

(* A scenario "still fails" when it reproduces a violation of the same
   protocol and property — chasing a different bug mid-shrink would make
   the minimum meaningless. *)
let reproduces ~protocols (v : Runner.violation) s =
  let report = Runner.run ~protocols s in
  List.find_opt
    (fun (v' : Runner.violation) ->
      v'.protocol = v.protocol && v'.property = v.property)
    (Runner.report_violations report)

(** Greedy descent through {!Scenario.shrink} candidates: take the first
    candidate that still reproduces the violation, repeat until none does
    (or a step cap, as a backstop against shrink cycles). *)
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

(** Run [count] generated scenarios (stopping early once [time_budget]
    wall-clock seconds have elapsed, if given) through the differential
    suite. Every 25th scenario is additionally replayed twice for
    bit-identical determinism. Returns the stats, or the first (shrunk)
    failure.

    Scenarios are evaluated in batches fanned across the {!Exec} domain
    pool. Each scenario is a pure function of [seed] and its index
    ([Sim.Rand.derive] off a never-advancing root), so results are
    identical at any [jobs]; the serial fold below consumes batch results
    in index order, reproducing the serial loop's stats and
    first-violation semantics exactly. *)
let run ?(protocols = Registry.all) ?(count = 500) ?(seed = 1) ?max_n
    ?time_budget ?jobs ?(progress = fun _ -> ()) ?store () :
    (stats, failure * stats) result =
  let stats = stats_zero () in
  let root = Sim.Rand.create ~seed:(Int64.of_int seed) () in
  (* checkpoint/resume and cross-campaign dedup in one: each clean
     scenario's stats contribution is stored under the scenario itself
     (plus the protocol set and which determinism check the rotation owes
     this index), so an interrupted soak rerun on the same store — or a
     repeated or reseeded one — folds every scenario already proved clean
     without re-evaluating it, and reports identical stats. Violations are
     never stored: a failing scenario re-runs, re-shrinks and re-reports. *)
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
  let store_key i s =
    Printf.sprintf "fuzz-scenario|%s|%s|det=%s" protocols_sig
      (Scenario.to_string s)
      (match det_entry i s with None -> "-" | Some e -> e.Registry.id)
  in
  (* payload: "runs checked det" *)
  let encode (r, c, d) = Printf.sprintf "%d %d %d" r c d in
  let decode payload =
    match String.split_on_char ' ' payload with
    | [ r; c; d ] -> Some (int_of_string r, int_of_string c, int_of_string d)
    | _ -> None
  in
  let eval i =
    let s = scenario_of i in
    let report = Runner.run ~protocols s in
    let violation =
      match Runner.report_violations report with v :: _ -> Some v | [] -> None
    in
    (* the serial loop stops at a conformance violation before reaching the
       determinism check, so don't spend the replays in that case *)
    let det =
      if violation <> None then None
      else
        match det_entry i s with
        | None -> None
        | Some e -> Some (Runner.determinism_violation e s)
    in
    (s, report, violation, det)
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
      let hi = min count (!i + batch) in
      let lo = !i in
      (* one store lookup per index, on this domain, before dispatch *)
      let pre =
        Array.init (hi - lo) (fun k ->
            let idx = lo + k in
            Option.bind store (fun st ->
                Cache.Store.lookup st ~decode
                  (store_key idx (scenario_of idx))))
      in
      let fresh =
        Array.of_list
          (List.filter
             (fun k -> pre.(k - lo) = None)
             (List.init (hi - lo) (fun k -> lo + k)))
      in
      let results = Exec.map ~jobs (fun k -> (k, eval k)) fresh in
      (* index the fresh results so the fold below can walk lo..hi-1 in
         order, interleaving stored and freshly evaluated scenarios *)
      let tbl = Hashtbl.create (Array.length results) in
      Array.iter (fun (k, r) -> Hashtbl.add tbl k r) results;
      for idx = lo to hi - 1 do
        (match pre.(idx - lo) with
        | Some c -> add c
        | None ->
            let s, (report : Runner.report), violation, det =
              Hashtbl.find tbl idx
            in
            let c =
              ( List.length report.results,
                List.length
                  (List.filter (fun r -> r.Runner.checked) report.results),
                if det = None then 0 else 1 )
            in
            add c;
            (match violation with
            | Some v ->
                let shrunk, v', steps = minimise ~protocols v s in
                raise
                  (Found
                     {
                       original = s;
                       shrunk;
                       violation = v';
                       shrink_steps = steps;
                     })
            | None -> ());
            (match det with
            | Some (Some v) ->
                raise
                  (Found
                     { original = s; shrunk = s; violation = v; shrink_steps = 0 })
            | Some None | None -> ());
            Option.iter
              (fun st -> Cache.Store.add st ~key:(store_key idx s) (encode c))
              store);
        if (idx + 1) mod 50 = 0 then
          progress
            (Printf.sprintf "%d scenarios, %d protocol runs, %d checked"
               stats.scenarios stats.runs stats.checked)
      done;
      i := hi
    done;
    Ok stats
  with Found f -> Error (f, stats)
