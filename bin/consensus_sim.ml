(** Command-line driver: run any registered protocol against any adversary
    and print the three complexity metrics, inspect a Theorem-4
    communication graph, fuzz the protocol registry, replay counterexample
    scenarios, or compare trace files.

    Flag spellings are shared with bench/main.exe: --jobs, --seeds, --json,
    --wall-budget/--round-budget/--msg-budget/--rand-budget, --trace,
    --trace-dir, --trace-tail. *)

open Cmdliner

let print_tail lines =
  if lines <> [] then begin
    Fmt.pr "trace tail (last rounds):@.";
    List.iter (fun l -> Fmt.pr "  %s@." l) lines
  end

let run_cmd spec0 seeds trace trace_dir trace_tail cache no_cache =
  let builder =
    match Run_spec.resolve spec0 with
    | Ok b -> b
    | Error msg ->
        Fmt.epr "%s@." msg;
        exit 2
  in
  let module B = (val builder : Sim.Protocol_intf.BUILDER) in
  Option.iter Cache.ensure_dir trace_dir;
  let store =
    Run_spec.Cli.store_of_flags ~resume:false ~json:None ~cache ~no_cache ()
  in
  let { Run_spec.protocol; n; t_max = t; _ } = spec0 in
  let failures = ref 0 in
  let run_one ~seed ~verbose =
    let spec = { spec0 with Run_spec.seed } in
    let proto_name = B.name in
    let path =
      Option.map
        (fun dir ->
          Filename.concat dir
            (Printf.sprintf "run.%s.seed%d.trace.jsonl" B.name seed))
        trace_dir
    in
    let obs =
      Trace.Observers.create ~tail:trace_tail ~metrics:trace ?file:path ()
    in
    (* one result shape for the linkless and lossy-link paths; the
       degradation report rides along when the spec has a net. The spec's
       canonical string is also the cache key, so a repeated run with
       --cache is served from the store. *)
    let result =
      Run_spec.execute ?trace:(Trace.Observers.sink obs) ?store spec
    in
    Trace.Observers.close obs;
    Option.iter
      (fun p -> if verbose then Fmt.pr "trace written      : %s@." p)
      path;
    match result with
    | Error (kind, partial) ->
        (* every failure, a degraded or violated run included, is a
           structured quarantine record with a replay one-liner (the
           canonical spec serialization) and the trace tail, never a
           consensus verdict *)
        incr failures;
        let replay = Run_spec.to_command spec in
        let f =
          {
            Supervise.index = 0;
            label = Printf.sprintf "run/%s/seed%d" protocol seed;
            seed = Some seed;
            replay = Some replay;
            kind;
            elapsed_s = 0.;
            trace = Trace.Observers.tail_lines obs;
          }
        in
        Fmt.pr "seed %-4d: %s — %a@." seed
          (match kind with
          | Supervise.Degraded _ -> "DEGRADED BEYOND MODEL"
          | _ -> "SUPERVISION FAILURE")
          Supervise.pp_failure_kind kind;
        (match partial with
        | Some (_, Some d) ->
            Fmt.pr "  degradation: %s@." (Net.Degradation.to_json d)
        | _ -> ());
        Fmt.pr "%s@." (Supervise.failure_json f);
        Fmt.pr "  replay: %s@." replay
    | Ok (o, degradation) ->
        (* the oracle has passed the run: agreement and validity hold, and
           [None] here means a covered process did not decide *)
        let decision = Supervise.Oracle.decision ?degradation o in
        if verbose then begin
          Fmt.pr "protocol           : %s@." proto_name;
          Fmt.pr "n / t / seed       : %d / %d / %d@." n t seed;
          Fmt.pr "adversary          : %s (faults used %d)@."
            (Run_spec.adversary spec).Sim.Adversary_intf.name
            o.Sim.Engine.faults_used;
          Fmt.pr "rounds (T)         : %d%s@." o.rounds_total
            (match o.decided_round with
            | Some r ->
                Printf.sprintf " (all non-faulty decided by round %d)" r
            | None -> " (DID NOT TERMINATE within max_rounds)");
          Fmt.pr "messages / bits    : %d / %d@." o.messages_sent o.bits_sent;
          Fmt.pr "rand calls / bits  : %d / %d@." o.rand_calls o.rand_bits;
          Fmt.pr "omitted messages   : %d@." o.messages_omitted;
          (* printed only for a spec that can actually fault, so a
             drop=0-style --net run stays byte-identical to a linkless one *)
          match (degradation, spec.Run_spec.net) with
          | Some d, Some ns when not (Net.Spec.zero_fault ns) ->
              Fmt.pr "net degradation    : %s@." (Net.Degradation.to_json d)
          | _ -> ()
        end
        else
          Fmt.pr "seed %-4d: rounds=%-5d msgs=%-8d bits=%-9d rand_bits=%-7d %s@."
            seed o.Sim.Engine.rounds_total o.messages_sent o.bits_sent
            o.rand_bits
            (match decision with
            | Some v -> Printf.sprintf "decision=%d" v
            | None -> "UNDECIDED");
        Option.iter
          (Fmt.pr "%a@." Trace.Metrics.pp_summary)
          (Trace.Observers.summary obs);
        (match decision with
        | Some v -> if verbose then Fmt.pr "decision           : %d (agreement holds)@." v
        | None ->
            if verbose then
              Fmt.pr "decision           : NONE (a non-faulty process did not decide)@.";
            print_tail (Trace.Observers.tail_lines obs);
            incr failures)
  in
  (match seeds with
  | None -> run_one ~seed:spec0.Run_spec.seed ~verbose:true
  | Some k ->
      Fmt.pr "protocol %s, n=%d t=%d, seeds 1..%d@." B.name n t k;
      for s = 1 to k do
        run_one ~seed:s ~verbose:false
      done);
  (match store with
  | None -> ()
  | Some st ->
      Fmt.pr "cache: %a (%d entries in %s, fingerprint %s)@." Cache.Stats.pp
        (Cache.Store.stats st) (Cache.Store.entries st) (Cache.Store.dir st)
        (Cache.Store.fingerprint st);
      Cache.Store.close st);
  if !failures > 0 then exit 1

let graph_cmd n delta_c seed =
  let delta = Expander.default_delta ~c:delta_c n in
  let g = Expander.create_good ~n ~delta ~seed:(Int64.of_int seed) () in
  let degs = Array.init n (fun v -> float_of_int (Expander.degree g v)) in
  Fmt.pr "n=%d delta=%d edges=%d@." n delta (Expander.edge_count g);
  Fmt.pr "degree: min=%.0f mean=%.1f max=%.0f@."
    (Array.fold_left min degs.(0) degs)
    (Stats.mean degs)
    (Array.fold_left max degs.(0) degs);
  let removed = Array.init n (fun v -> v < n / 15) in
  let core = Expander.prune g ~removed ~min_deg:(delta / 3) in
  Fmt.pr "Lemma 4: removed %d nodes -> dense core of %d (bound n - 4/3|T| = %d)@."
    (n / 15)
    (Expander.mask_size core)
    (n - (4 * (n / 15) / 3));
  let v = ref 0 in
  while !v < n && not core.(!v) do
    incr v
  done;
  if !v < n then
    match Expander.eccentricity_within g ~mask:core ~v:!v with
    | Some e -> Fmt.pr "core eccentricity from node %d: %d@." !v e
    | None -> Fmt.pr "core is disconnected@."

(* --- fuzz / replay: the property-based differential harness --- *)

let fuzz_protocols spec =
  match spec with
  | None -> Harness.Registry.all
  | Some id -> (
      match Harness.Registry.find id with
      | Ok e -> [ e ]
      | Error msg ->
          Fmt.epr "%s@." msg;
          exit 2)

let fuzz_cmd count seed max_n protocol smoke jobs json resume cache no_cache
    trace_dir trace_tail =
  let protocols = fuzz_protocols protocol in
  let count = if smoke then max count 1_000_000 else count in
  let time_budget = if smoke then Some 25.0 else None in
  let jobs = if jobs <= 0 then Exec.default_jobs () else jobs in
  (* --json FILE: machine-readable result records in FILE; --resume
     keeps the run cache beside it (FILE.cache) — same layout as
     bench/main.exe. *)
  let store = Run_spec.Cli.store_of_flags ~resume ~json ~cache ~no_cache () in
  let json_ch = Option.map (fun path -> open_out path) json in
  let emit_json fields =
    match json_ch with
    | None -> ()
    | Some ch ->
        output_string ch (Jsonl.obj fields ^ "\n");
        flush ch
  in
  let result =
    Conformance.Fuzz.run ~protocols ~count ~seed ~max_n ?time_budget ~jobs
      ~progress:(fun m -> Fmt.pr "fuzz: %s@." m)
      ?store ()
  in
  (match store with
  | None -> ()
  | Some st ->
      Fmt.pr "fuzz: cache %a (%d entries in %s, fingerprint %s)@."
        Cache.Stats.pp (Cache.Store.stats st) (Cache.Store.entries st)
        (Cache.Store.dir st) (Cache.Store.fingerprint st);
      Cache.Store.close st);
  match result with
  | Ok stats ->
      Fmt.pr
        "fuzz: OK — %d scenarios, %d protocol runs (%d conformance-checked), \
         %d determinism checks, 0 violations@."
        stats.Conformance.Fuzz.scenarios stats.runs stats.checked
        stats.determinism_checks;
      emit_json
        Jsonl.
          [
            ("kind", S "fuzz-ok");
            ("schema_version", I schema_version);
            ("scenarios", I stats.Conformance.Fuzz.scenarios);
            ("runs", I stats.runs);
            ("checked", I stats.checked);
            ("determinism_checks", I stats.determinism_checks);
          ];
      Option.iter close_out json_ch
  | Error (f, stats) ->
      Fmt.pr "fuzz: FAILED after %d scenarios@." stats.Conformance.Fuzz.scenarios;
      Fmt.pr "%a" Conformance.Fuzz.pp_failure f;
      (* quarantine the counterexample with its trace: full trace file +
         last-K-rounds tail on the console and in the JSON record *)
      Cache.ensure_dir trace_dir;
      let q, path =
        Conformance.Fuzz.quarantine ~tail_rounds:(max 1 trace_tail)
          ~dir:trace_dir f
      in
      Fmt.pr "fuzz: counterexample trace in %s@." path;
      print_tail q.Supervise.trace;
      emit_json
        Jsonl.(
          [ ("kind", S "quarantine"); ("schema_version", I schema_version) ]
          @ Supervise.failure_fields ~elapsed:false q
          @ [
              ("original", S (Harness.Scenario.to_string f.original));
              ("shrunk", S (Harness.Scenario.to_string f.shrunk));
              ("shrink_steps", I f.shrink_steps);
              ("trace_file", S path);
            ]);
      Option.iter close_out json_ch;
      exit 1

let replay_cmd scenario protocol all =
  let s =
    try Harness.Scenario.of_string scenario
    with Harness.Scenario.Parse_error m ->
      Fmt.epr "bad scenario: %s@." m;
      exit 2
  in
  let protocols = fuzz_protocols protocol in
  let report =
    Conformance.Runner.run ~protocols ~include_out_of_model:all s
  in
  Fmt.pr "%a" Conformance.Runner.pp_report report;
  if Conformance.Runner.report_violations report <> [] then exit 1

(* --- trace diff / show --- *)

let read_trace_or_die path =
  match Trace.File.read path with
  | events -> events
  | exception Trace.File.Corrupt m ->
      Fmt.epr "%s: corrupt trace: %s@." path m;
      exit 2
  | exception Sys_error m ->
      Fmt.epr "%s@." m;
      exit 2

let trace_diff_cmd left right =
  let l = read_trace_or_die left and r = read_trace_or_die right in
  match Trace.Diff.events l r with
  | Trace.Diff.Identical n ->
      Fmt.pr "identical: %d events@." n
  | Trace.Diff.Diverged _ as d ->
      Fmt.pr "%a@." Trace.Diff.pp_outcome d;
      exit 1

let trace_show_cmd path metrics =
  let events = read_trace_or_die path in
  if metrics then
    Fmt.pr "%a@." Trace.Metrics.pp_summary (Trace.Metrics.of_events events)
  else
    List.iter (fun e -> print_endline (Trace.Event.to_json e)) events

(* --- terms --- *)

let n_arg =
  Arg.(value & opt int 128 & info [ "n" ] ~doc:"Number of processes.")

let t_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "t" ] ~doc:"Fault budget (default n/31).")

let x_arg =
  Arg.(value & opt int 4 & info [ "x" ] ~doc:"Super-process count (param).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let seeds_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seeds" ]
        ~doc:"Run seeds 1..$(docv) and print one summary line each.")

let delta_c_arg =
  Arg.(value & opt int 8 & info [ "delta-c" ] ~doc:"Degree constant.")

let budget_term =
  let wall =
    Arg.(
      value & opt float 0.
      & info [ "wall-budget" ]
          ~doc:"Wall-clock watchdog per run, seconds (0 = unlimited).")
  in
  let rounds =
    Arg.(
      value & opt int 0
      & info [ "round-budget" ]
          ~doc:"Engine-round ceiling per run (0 = unlimited).")
  in
  let msgs =
    Arg.(
      value & opt int 0
      & info [ "msg-budget" ] ~doc:"Message ceiling per run (0 = unlimited).")
  in
  let rand =
    Arg.(
      value & opt int 0
      & info [ "rand-budget" ]
          ~doc:"Random-bit ceiling per run (0 = unlimited).")
  in
  Term.(
    const (fun wall rounds msgs rand -> { Run_spec.Cli.wall; rounds; msgs; rand })
    $ wall $ rounds $ msgs $ rand)

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Collect per-round trace metrics and print the summary.")

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ]
        ~doc:"Write full event traces to files in $(docv) (created if \
              missing).")

let trace_tail_arg ~doc = Arg.(value & opt int 0 & info [ "trace-tail" ] ~doc)

let run_term =
  let protocol =
    Arg.(
      value & opt string "optimal"
      & info [ "protocol"; "p" ]
          ~doc:
            ("Protocol (a registry id, or \"param\" which takes -x). \
              Registered: "
            ^ String.concat ", " (Harness.Registry.ids ())
            ^ "."))
  in
  let adversary =
    Arg.(
      value & opt string "none"
      & info [ "adversary"; "a" ]
          ~doc:
            ("Adversary: "
            ^ String.concat ", " Run_spec.Cli.adversary_names
            ^ ", or a strategy term such as strike(hold0x2,to1)."))
  in
  let inputs =
    Arg.(
      value & opt string "mixed"
      & info [ "inputs"; "i" ]
          ~doc:
            ("Inputs: " ^ String.concat ", " Run_spec.Cli.inputs_names
           ^ ", or n bits, pid 0 first."))
  in
  let net =
    Arg.(
      value
      & opt (some string) None
      & info [ "net" ] ~docv:"SPEC"
          ~doc:
            "Run over a lossy-link transport: comma-separated key=value \
             fields — drop=P, dup=P, delay=P[:MAX], stall=P[:LEN], \
             burst=TO_BAD:TO_GOOD:DROP, retries=N, backoff=BASE[:CAP]. \
             Residual losses the retry budget cannot mask become induced \
             omission faults; a run whose induced + adversarial faults \
             exceed t is reported as degraded (exit 1, replay one-liner), \
             never as a consensus result.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:
            "Run the canonical run-spec serialization $(docv) (as printed \
             by replay one-liners and cache provenance records) instead of \
             assembling one from the flags above; -p/-n/-t/-x/--seed/-a/-i/\
             --net and the budget flags are ignored. $(docv) is 12 \
             space-separated tokens in this order: p=ID n=N t=T x=X|- \
             seed=S a=ADV i=INPUTS wall=SECS|- rounds=N|- msgs=N|- \
             rand=N|- net=SPEC|- (x only for p=param, - elsewhere; wall as \
             an OCaml float, e.g. 0x1.4p+3). A malformed or invalid spec \
             exits 2.")
  in
  let cache_arg =
    Arg.(
      value & opt string ""
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Serve repeated runs from the content-addressed result store in \
             $(docv) (created if missing); misses run and write back.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Ignore --cache: always execute.")
  in
  Term.(
    const (fun protocol n t x seed seeds adversary inputs bflags net trace
               trace_dir trace_tail spec_str cache no_cache ->
        let spec =
          match spec_str with
          | Some s -> (
              match Run_spec.of_string s with
              | Ok spec -> spec
              | Error m ->
                  Fmt.epr "%s@." m;
                  Stdlib.exit 2)
          | None ->
              let t = match t with Some t -> t | None -> max 1 (n / 31) in
              Run_spec.make
                ?x:(if protocol = "param" then Some x else None)
                ~adversary ~inputs
                ?net:(Option.map Run_spec.Cli.net_or_die net)
                ~budget:(Run_spec.Cli.budget_of_flags bflags)
                ~protocol ~n ~t_max:t ~seed ()
        in
        run_cmd spec seeds trace trace_dir trace_tail cache no_cache)
    $ protocol $ n_arg $ t_arg $ x_arg $ seed_arg $ seeds_arg $ adversary
    $ inputs $ budget_term $ net $ trace_flag $ trace_dir_arg $ trace_tail_arg
        ~doc:
          "Keep the last $(docv) rounds of events; embedded in a failed \
           run's quarantine record, printed for a run that did not decide \
           (0 = off)."
    $ spec_arg $ cache_arg $ no_cache)

let graph_term =
  Term.(const graph_cmd $ n_arg $ delta_c_arg $ seed_arg)

let fuzz_term =
  let count =
    Arg.(
      value & opt int 500
      & info [ "count"; "c" ] ~doc:"Number of generated scenarios.")
  in
  let max_n =
    Arg.(
      value & opt int 40
      & info [ "max-n" ] ~doc:"Largest generated system size.")
  in
  let protocol =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocol"; "p" ]
          ~doc:"Fuzz only this registered protocol (default: all).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI soak mode: run as many scenarios as fit in ~25 s.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ]
          ~doc:
            "Domains in the executor pool (default: recommended count; 1 = \
             serial; results are identical at any width).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ]
          ~doc:
            "JSON-lines result sink: the final stats (kind=\"fuzz-ok\") or \
             the shrunk counterexample with its trace tail \
             (kind=\"quarantine\") land in $(docv); $(b,--resume) keeps \
             its run cache beside it at $(docv).cache.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Shorthand for $(b,--cache) FILE.cache, FILE being the \
             $(b,--json) path: rerunning a killed soak with $(b,--resume) \
             skips every scenario it already proved clean; final stats are \
             identical to an uninterrupted run.")
  in
  let cache =
    Arg.(
      value & opt string ""
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Deduplicate clean scenarios across campaigns through the \
             content-addressed result store in $(docv): scenarios any \
             earlier soak already proved clean are folded from the store \
             instead of re-executed.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Ignore --cache and --resume: always execute.")
  in
  Term.(
    const fuzz_cmd $ count $ seed_arg $ max_n $ protocol $ smoke $ jobs $ json
    $ resume $ cache $ no_cache
    $ Arg.(
        value & opt string "."
        & info [ "trace-dir" ]
            ~doc:
              "Directory for the counterexample trace dumped on failure \
               (created if missing).")
    $ trace_tail_arg
        ~doc:
          "Rounds of events to keep in the failure record's trace tail \
           (default 5).")

let replay_term =
  let scenario =
    Arg.(
      required
      & opt (some string) None
      & info [ "scenario"; "s" ]
          ~doc:
            "Scenario to replay (n/t/seed/bits/strategy). Each protocol \
             runs it as a run spec, printed under its row as a $(b,run \
             --spec) replay line.")
  in
  let protocol =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocol"; "p" ]
          ~doc:"Replay only this registered protocol (default: all).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Also run protocols whose fault model does not cover the \
                scenario (metric invariants only).")
  in
  Term.(const replay_cmd $ scenario $ protocol $ all)

let trace_cmd =
  let left =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LEFT" ~doc:"First JSONL trace file.")
  in
  let right =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"RIGHT" ~doc:"Second JSONL trace file.")
  in
  let diff =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two trace files and report the first diverging event \
            (exit 1 on divergence) — the debuggable form of the \
            bit-identical determinism claims.")
      Term.(const trace_diff_cmd $ left $ right)
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace file.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the per-round metrics summary instead of the events.")
  in
  let show =
    Cmd.v
      (Cmd.info "show"
         ~doc:"Print a trace file's events, one JSON object per line.")
      Term.(const trace_show_cmd $ file $ metrics)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect and compare event trace files")
    [ diff; show ]

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a consensus protocol in the simulator")
      run_term;
    Cmd.v (Cmd.info "graph" ~doc:"Inspect a Theorem-4 communication graph")
      graph_term;
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Property-based differential fuzzing of all registered protocols \
            against generated adversary strategies")
      fuzz_term;
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Run a scenario on the registry and print the conformance report")
      replay_term;
    trace_cmd;
  ]

let () =
  let doc = "Omission-tolerant consensus simulator (PODC 2024 reproduction)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "consensus_sim" ~doc) cmds))
