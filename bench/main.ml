(* Experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md section 4 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured results).

   Usage:
     dune exec bench/main.exe                 # all experiments, default sizes
     dune exec bench/main.exe -- --quick      # smaller sweeps (CI)
     dune exec bench/main.exe -- --only t1-thm1,f3
     dune exec bench/main.exe -- --jobs 4     # domain-pool width (results
                                              # are identical at any width)
     dune exec bench/main.exe -- --json out.json  # JSON-lines sink
                                              # (default BENCH_consensus.json)
     dune exec bench/main.exe -- --resume     # = --cache <json>.cache:
                                              # rerun a killed campaign to
                                              # skip what it finished
     dune exec bench/main.exe -- --stable-json    # omit wall_s stamps, so
                                              # two runs diff byte-identical
     dune exec bench/main.exe -- --wall-budget 30 --rand-budget 1000000
                                              # per-task watchdog ceilings;
                                              # breaches are quarantined
     dune exec bench/main.exe -- --trace      # per-round trace metrics into
                                              # the JSON sink
     dune exec bench/main.exe -- --trace-dir traces
                                              # full per-run JSONL traces
     dune exec bench/main.exe -- --trace-tail 5  # quarantine records embed
                                              # the last 5 rounds of events
     dune exec bench/main.exe -- --seeds 8    # seeds 1..8 at every point
     dune exec bench/main.exe -- --cache DIR  # content-addressed run cache:
                                              # hits skip the protocol run,
                                              # results stay byte-identical

   Every experiment except the two timing sections (micro-engine, scale)
   runs its tasks through Bench_util.sweep: each task is served from
   --cache when it can be, and a task that crashes, times out, or breaches
   a budget is quarantined (a JSON record with a replay command,
   kind="quarantine"), the sweep keeps going, and the campaign exits
   non-zero with a partial-results summary. *)

let experiments =
  [
    ("t1-thm1", Experiments.t1_thm1);
    ("t1-thm3", Experiments.t1_thm3);
    ("t1-bjbo", Experiments.t1_bjbo);
    ("t1-abraham", Experiments.t1_abraham);
    ("t1-thm2", Experiments.t1_thm2);
    ("b3", Experiments.b3);
    ("f1", Figures.f1);
    ("f2", Figures.f2);
    ("f3", Figures.f3);
    ("g4", Figures.g4);
    ("l12", Figures.l12);
    ("valency", Figures.valency);
    ("abl-delta", Ablations.abl_delta);
    ("abl-spread", Ablations.abl_spread);
    ("abl-epochs", Ablations.abl_epochs);
    ("micro-engine", Micro.engine_bench);
    ("net", Netbench.net);
    ("scale", Scale.scale);
  ]

let () =
  let quick = ref false in
  let only = ref [] in
  let jobs = ref 0 in
  let seeds = ref 0 in
  let json = ref "BENCH_consensus.json" in
  let resume = ref false in
  let stable = ref false in
  let wall_budget = ref 0. in
  let round_budget = ref 0 in
  let msg_budget = ref 0 in
  let rand_budget = ref 0 in
  let trace = ref false in
  let trace_dir = ref "" in
  let trace_tail = ref 0 in
  let net_spec = ref "" in
  let cache = ref "" in
  let no_cache = ref false in
  let spec =
    [
      ("--quick", Arg.Set quick, "smaller sweeps");
      ( "--only",
        Arg.String (fun s -> only := String.split_on_char ',' s),
        "comma-separated experiment ids" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N  domains in the executor pool (default: recommended count; 1 = \
         serial)" );
      ("-j", Arg.Set_int jobs, "N  alias for --jobs");
      ( "--seeds",
        Arg.Set_int seeds,
        "N  run every sweep point on seeds 1..N instead of each \
         experiment's default seed list (0 = defaults)" );
      ( "--json",
        Arg.Set_string json,
        "FILE  JSON-lines results sink (default BENCH_consensus.json; \
         \"\" disables)" );
      ( "--resume",
        Arg.Set resume,
        "shorthand for --cache <json>.cache: rerunning a killed campaign \
         with --resume skips every task it finished; results are \
         bit-identical to an uninterrupted run" );
      ( "--stable-json",
        Arg.Set stable,
        "omit wall_s stamps from JSON records, so two runs of the same \
         campaign produce byte-identical files" );
      ( "--wall-budget",
        Arg.Set_float wall_budget,
        "S  wall-clock watchdog per sweep task, seconds (0 = unlimited)" );
      ( "--round-budget",
        Arg.Set_int round_budget,
        "N  engine-round ceiling per sweep task (0 = unlimited)" );
      ( "--msg-budget",
        Arg.Set_int msg_budget,
        "N  message ceiling per sweep task (0 = unlimited)" );
      ( "--rand-budget",
        Arg.Set_int rand_budget,
        "N  random-bit ceiling per sweep task (0 = unlimited)" );
      ( "--trace",
        Arg.Set trace,
        "collect per-round trace metrics for every run and tee them into \
         the JSON sink as kind=\"trace-metrics\" records" );
      ( "--trace-dir",
        Arg.Set_string trace_dir,
        "DIR  write each run's full event trace to a file in DIR (created \
         if missing)" );
      ( "--trace-tail",
        Arg.Set_int trace_tail,
        "K  keep the last K rounds of events per run; quarantine records \
         then embed the tail (0 = off)" );
      ( "--net",
        Arg.Set_string net_spec,
        "SPEC  base lossy-link spec for the \"net\" experiment (same syntax \
         as consensus_sim --net; the sweep varies the drop rate around it)" );
      ( "--cache",
        Arg.Set_string cache,
        "DIR  content-addressed run cache: protocol runs already in DIR are \
         served from it (kind=\"cache\" rows report hits/misses/writes), \
         fresh results are written back" );
      ( "--no-cache",
        Arg.Set no_cache,
        "ignore --cache and --resume for this campaign (every run \
         executes)" );
    ]
  in
  Arg.parse spec
    (fun _ -> ())
    "bench/main.exe [--quick] [--only ids] [--jobs N] [--seeds N]\n\
    \                [--json FILE] [--resume] [--stable-json] \
     [--wall-budget S]\n\
    \                [--round-budget N] [--msg-budget N] [--rand-budget N]\n\
    \                [--trace] [--trace-dir DIR] [--trace-tail K]\n\
    \                [--cache DIR] [--no-cache]";
  Exec.set_default_jobs !jobs;
  Bench_util.Out.set_stable !stable;
  Bench_util.seeds_override := (if !seeds <= 0 then None else Some !seeds);
  if !net_spec <> "" then
    Bench_util.net_base := Some (Run_spec.Cli.net_or_die !net_spec);
  Bench_util.trace_metrics := !trace;
  Bench_util.trace_tail_rounds := max 0 !trace_tail;
  if !trace_dir <> "" then begin
    if not (Sys.file_exists !trace_dir) then Sys.mkdir !trace_dir 0o755;
    Bench_util.trace_dir := Some !trace_dir
  end;
  let json = if !json = "" then None else Some !json in
  (* a --trace campaign caches trace metrics in its payloads, so it keeps
     its own entries: an untraced entry is never served to a traced run *)
  Bench_util.store :=
    Run_spec.Cli.store_of_flags
      ?fingerprint:
        (if !trace then Some (Cache.fingerprint ^ "+trace") else None)
      ~resume:!resume ~json ~cache:!cache ~no_cache:!no_cache ();
  Bench_util.Out.set_path json;
  Bench_util.budget :=
    Run_spec.Cli.budget_of_flags
      {
        Run_spec.Cli.wall = !wall_budget;
        rounds = !round_budget;
        msgs = !msg_budget;
        rand = !rand_budget;
      };
  let selected =
    match !only with
    | [] -> experiments
    | ids ->
        List.filter_map
          (fun id ->
            match List.assoc_opt id experiments with
            | Some f -> Some (id, f)
            | None ->
                Printf.eprintf "unknown experiment %S\n" id;
                exit 2)
          ids
  in
  Printf.printf
    "Reproduction harness: Hajiaghayi, Kowalski, Olkowski — Nearly-Optimal \
     Consensus\nTolerating Adaptive Omissions (PODC 2024). %s sweeps, %d \
     jobs.\n"
    (if !quick then "Quick" else "Default")
    (Exec.default_jobs ());
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (id, f) ->
      Bench_util.Out.start_experiment id;
      let mark = Bench_util.cache_mark () in
      f ~quick:!quick ();
      (* one kind="cache" delta row per experiment when the store is on,
         then one summary record: wall_s is the experiment's total
         wall-clock, stamped by emit *)
      Bench_util.emit_cache_delta mark;
      Bench_util.Out.emit ~kind:"summary"
        [
          ("quick", Bench_util.Out.B !quick);
          ("jobs", Bench_util.Out.I (Exec.default_jobs ()));
        ])
    selected;
  (match !Bench_util.store with
  | None -> ()
  | Some s ->
      Bench_util.Out.start_experiment "cache";
      let st = Cache.Store.stats s in
      Bench_util.Out.emit ~kind:"cache"
        [
          ("hits", Bench_util.Out.I st.Cache.Stats.hits);
          ("misses", Bench_util.Out.I st.Cache.Stats.misses);
          ("writes", Bench_util.Out.I st.Cache.Stats.writes);
          ("entries", Bench_util.Out.I (Cache.Store.entries s));
        ];
      Printf.printf "\ncache: %s (%d entries in %s%s)\n"
        (Fmt.str "%a" Cache.Stats.pp st)
        (Cache.Store.entries s) (Cache.Store.dir s)
        (match Cache.Store.corrupt s with
        | 0 -> ""
        | c -> Printf.sprintf ", %d corrupt dropped" c);
      Cache.Store.close s);
  Printf.printf "\ntotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0);
  Bench_util.print_failure_summary ();
  Bench_util.Out.close ();
  if Bench_util.failures () > 0 then exit 1
