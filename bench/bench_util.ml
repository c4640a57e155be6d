(* Shared plumbing for the experiment harness: stdout tables, the
   JSON-lines results sink, and the supervision glue — quarantined sweeps,
   watchdog budgets, and the run cache behind --cache and --resume. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Structured results: every experiment row is teed as a JSON record   *)
(* (JSON Lines) into BENCH_consensus.json, alongside the stdout table. *)
(* ------------------------------------------------------------------ *)

module Out = struct
  (* the Jsonl value type, re-exported so rows read [Out.I 3] etc. *)
  type jv = Jsonl.v =
    | I of int
    | F of float
    | S of string
    | B of bool
    | L of jv list
    | Null
    | Raw of string

  let sink : out_channel option ref = ref None
  let experiment = ref ""
  let started = ref 0.

  (* stable mode omits the wall_s stamp from every record (and elapsed_s
     from quarantine records), so two runs of the same campaign — e.g.
     interrupted-then-resumed vs uninterrupted — produce byte-identical
     files *)
  let stable = ref false
  let set_stable b = stable := b
  let is_stable () = !stable

  let set_path = function
    | None -> sink := None
    | Some path -> sink := Some (open_out path)

  let start_experiment id =
    experiment := id;
    started := Unix.gettimeofday ()

  let elapsed () = Unix.gettimeofday () -. !started

  (* One self-contained JSON object per line: experiment id, record kind,
     schema version, wall-clock seconds since the experiment started
     (unless in stable mode), then the caller's parameter/metric fields in
     order. *)
  let emit ?(kind = "row") fields =
    match !sink with
    | None -> ()
    | Some ch ->
        let head =
          [
            ("experiment", S !experiment);
            ("kind", S kind);
            ("schema_version", I Jsonl.schema_version);
          ]
        in
        let wall =
          if !stable then []
          else [ ("wall_s", Raw (Printf.sprintf "%.3f" (elapsed ()))) ]
        in
        output_string ch (Jsonl.obj (head @ wall @ fields));
        output_char ch '\n';
        flush ch

  let close () =
    match !sink with
    | None -> ()
    | Some ch ->
        close_out ch;
        sink := None
end

(* ------------------------------------------------------------------ *)
(* Supervision state: watchdog budget, run cache, quarantine ledger.   *)
(* ------------------------------------------------------------------ *)

(* wired from --wall-budget / --round-budget / --msg-budget / --rand-budget *)
let budget = ref Supervise.Budget.unlimited

(* ------------------------------------------------------------------ *)
(* Tracing configuration (wired from --trace / --trace-dir /           *)
(* --trace-tail on bench/main.exe).                                     *)
(* ------------------------------------------------------------------ *)

(* --trace: collect Trace.Metrics per run and tee kind="trace-metrics"
   records into the JSON sink *)
let trace_metrics = ref false

(* --trace-tail K: keep the last K rounds of events per supervised run;
   quarantine records then ship with the tail. 0 = off (the default: the
   engine's off path stays allocation-free). *)
let trace_tail_rounds = ref 0

(* --trace-dir DIR: write each run's full event trace to a file in DIR *)
let trace_dir : string option ref = ref None

let tracing_on () =
  !trace_metrics || !trace_tail_rounds > 0 || !trace_dir <> None

(* --net SPEC: base lossy-link transport spec for the kind="net"
   experiment (the sweep still varies the drop rate around it) *)
let net_base : Net.Spec.t option ref = ref None

(* --quick: smaller sweeps *)
let quick = ref false

(* --seeds N: override each experiment's default per-point seed list *)
let seeds_override : int option ref = ref None

let seed_list default =
  match !seeds_override with
  | None -> default
  | Some k -> List.init k (fun i -> i + 1)

(* Per-run trace files are named after the supervised task's label (the
   sweep point), with a per-label sequence number for tasks that measure
   more than once. The counter lives in domain-local storage: a task runs
   entirely on one domain, so same-label runs are numbered deterministically
   at any --jobs count. *)
let trace_seq_key : (string * int ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ("", ref 0))

let trace_file_path () =
  match !trace_dir with
  | None -> None
  | Some dir ->
      let label =
        match Supervise.current_label () with
        | Some l -> l
        | None -> "run"
      in
      let seq =
        let cur_label, count = Domain.DLS.get trace_seq_key in
        if cur_label = label then begin
          incr count;
          !count
        end
        else begin
          Domain.DLS.set trace_seq_key (label, ref 1);
          1
        end
      in
      let sanitized =
        String.map
          (fun c ->
            match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
            | _ -> '_')
          label
      in
      Some
        (Filename.concat dir
           (Printf.sprintf "%s.%s.%d.trace.jsonl" !Out.experiment sanitized
              seq))

(* the content-addressed run cache behind --cache and --resume, or None
   when off: the only memo, so a killed campaign rerun on the same store
   skips every task it already finished *)
let store : Cache.Store.t option ref = ref None

(* Per-experiment cache accounting: [cache_mark] snapshots the store
   counters, [emit_cache_delta] reports the movement since the snapshot
   as one kind="cache" row. Counters are ints, lookups run only on the
   main domain before dispatch, and workers write back exactly their
   successes, so the rows are deterministic at any --jobs count. *)
let cache_mark () =
  match !store with
  | None -> (0, 0, 0)
  | Some s ->
      let st = Cache.Store.stats s in
      (st.Cache.Stats.hits, st.Cache.Stats.misses, st.Cache.Stats.writes)

let emit_cache_delta (h0, m0, w0) =
  match !store with
  | None -> ()
  | Some s ->
      let st = Cache.Store.stats s in
      Out.emit ~kind:"cache"
        [
          ("hits", Out.I (st.Cache.Stats.hits - h0));
          ("misses", Out.I (st.Cache.Stats.misses - m0));
          ("writes", Out.I (st.Cache.Stats.writes - w0));
        ]

(* quarantined tasks + skipped points, for the end-of-campaign summary *)
let quarantined = ref 0
let skipped_points = ref 0
let failures () = !quarantined + !skipped_points

let quarantine (f : Supervise.failure) =
  incr quarantined;
  Printf.printf "  QUARANTINED %s: %s\n" f.Supervise.label
    (Fmt.str "%a" Supervise.pp_failure_kind f.Supervise.kind);
  (match f.Supervise.replay with
  | Some cmd -> Printf.printf "    replay: %s\n" cmd
  | None -> ());
  Out.emit ~kind:"quarantine"
    (Supervise.failure_fields ~elapsed:(not (Out.is_stable ())) f)

let skip_point ~label ~reason =
  incr skipped_points;
  Printf.printf "  SKIPPED%s: %s\n"
    (if label = "" then "" else Printf.sprintf " (%s)" label)
    reason;
  Out.emit ~kind:"skip" [ ("label", Out.S label); ("reason", Out.S reason) ]

(* Printed by bench/main.exe after the campaign; pairs with a non-zero
   exit so CI notices partial results. *)
let print_failure_summary () =
  if failures () > 0 then begin
    Printf.printf
      "\nWARNING: partial results — %d task(s) quarantined, %d point(s) \
       skipped.\nQuarantine records (with replay commands) are in the JSON \
       sink under kind=\"quarantine\".\n"
      !quarantined !skipped_points;
    Out.emit ~kind:"failure-summary"
      [
        ("quarantined", Out.I !quarantined);
        ("skipped_points", Out.I !skipped_points);
      ]
  end

(* ------------------------------------------------------------------ *)
(* Measurements.                                                       *)
(* ------------------------------------------------------------------ *)

type run_measure = {
  rounds : int;  (** decided round, or total if not terminated *)
  decided : bool;
  messages : int;
  bits : int;
  rand_calls : int;
  rand_bits : int;
  faults : int;
  metrics : Trace.Metrics.summary option;
      (** per-round trace metrics, when --trace is on *)
}

(* One bench run's spec: the campaign's budget and mixed inputs. The
   adversary is a spelling: a name or a strategy term. *)
let spec ?x ~protocol ~n ~t ~seed adversary =
  Run_spec.make ?x ~adversary ~budget:!budget ~protocol ~n ~t_max:t ~seed ()

(* Run [f] under the run's observers, [trace] (the caller's own sink)
   teed with them, and return its result with their metrics summary. The
   observers stay off unless a trace flag is set, keeping the default
   path identical to the untraced one. Under --stable-json the collector
   gets a constant clock: per-round wall_s stays 0 and two stable traced
   runs are byte-identical. A run that fails is quarantined like any
   other failure, never averaged over: it raises with the observers'
   tail and [replay]. *)
let observed ?trace ~replay f =
  let obs =
    Trace.Observers.create ~tail:!trace_tail_rounds ~metrics:!trace_metrics
      ?clock:(if Out.is_stable () then Some (fun () -> 0.) else None)
      ?file:(trace_file_path ()) ()
  in
  let trace =
    match (trace, Trace.Observers.sink obs) with
    | Some a, Some b -> Some (Trace.Sink.tee a b)
    | s, None | None, s -> s
  in
  let result = f trace in
  Trace.Observers.close obs;
  match result with
  | Ok r -> (r, Trace.Observers.summary obs)
  | Error (kind, _partial) ->
      raise
        (Supervise.Breach
           { kind; trace = Trace.Observers.tail_lines obs; replay })

(* Run [spec] through [Run_spec.supervise], judged as a consensus.
   [builder] overrides the spec's protocol (a variant outside the
   registry); [trace] is the caller's own sink, teed with the observers. *)
let measure ?trace ?builder spec =
  (* A run that fails reproduces as its spec, unless the builder was
     overridden: the spec then does not name what ran. *)
  let builder, replay =
    match builder with
    | Some b -> (b, None)
    | None -> (
        match Run_spec.resolve spec with
        | Ok b -> (b, Some (Run_spec.to_command spec))
        | Error msg -> invalid_arg msg)
  in
  (* Every bench sweep measures a consensus protocol. A run the oracle
     rejects is a protocol bug, raised by [observed]. A run that merely
     ran out of rounds surfaces as [decided = false] and is excluded from
     averages by [avg_runs]. *)
  let (o, _), metrics =
    observed ?trace ~replay (fun trace ->
        Run_spec.supervise ?trace ~property:Consensus builder spec)
  in
  {
    rounds =
      (match o.Sim.Engine.decided_round with
      | Some r -> r
      | None -> o.rounds_total);
    decided = o.decided_round <> None;
    messages = o.messages_sent;
    bits = o.bits_sent;
    rand_calls = o.rand_calls;
    rand_bits = o.rand_bits;
    faults = o.faults_used;
    metrics;
  }

(* cache codecs for run_measure, trace metrics included, so a warm
   --trace campaign emits the same trace-metrics records as a cold one *)
let per_round_codec =
  Cache.Codec.(
    conv
      (fun (r : Trace.Metrics.per_round) ->
        ( (r.round, r.messages, r.bits),
          (r.omitted, r.corruptions, r.coin_calls),
          (r.coin_bits, r.decisions, r.wall_s) ))
      (fun ( (round, messages, bits),
             (omitted, corruptions, coin_calls),
             (coin_bits, decisions, wall_s) ) ->
        { Trace.Metrics.round; messages; bits; omitted; corruptions;
          coin_calls; coin_bits; decisions; wall_s })
      (triple (triple int int int) (triple int int int) (triple int int float)))

let summary_codec =
  Cache.Codec.(
    conv
      (fun (s : Trace.Metrics.summary) ->
        ( ((s.rounds, s.messages, s.bits), (s.omitted, s.corruptions),
           (s.coin_calls, s.coin_bits, s.decisions)),
          (s.max_round_messages, s.max_round_bits, s.max_round_coin_bits),
          (s.wall_total_s, s.per_round) ))
      (fun ( ((rounds, messages, bits), (omitted, corruptions),
              (coin_calls, coin_bits, decisions)),
             (max_round_messages, max_round_bits, max_round_coin_bits),
             (wall_total_s, per_round) ) ->
        { Trace.Metrics.rounds; messages; bits; omitted; corruptions;
          coin_calls; coin_bits; decisions; max_round_messages;
          max_round_bits; max_round_coin_bits; wall_total_s; per_round })
      (triple
         (triple (triple int int int) (pair int int) (triple int int int))
         (triple int int int)
         (pair float (list per_round_codec))))

let measure_codec =
  Cache.Codec.(
    conv
      (fun m ->
        ( (m.rounds, m.decided, m.messages),
          (m.bits, m.rand_calls, m.rand_bits),
          (m.faults, m.metrics) ))
      (fun ( (rounds, decided, messages),
             (bits, rand_calls, rand_bits),
             (faults, metrics) ) ->
        { rounds; decided; messages; bits; rand_calls; rand_bits; faults;
          metrics })
      (triple (triple int bool int) (triple int int int)
         (pair int (option summary_codec))))

(* Average a list of measurements, excluding runs that hit max_rounds
   without deciding: their rounds column is a timeout artifact, not a
   measurement, and silently averaging it in would corrupt the fitted
   exponents. Returns [None] — a skipped point, reported and counted, the
   campaign continues — when no measurement survives, either because every
   run was quarantined upstream or because none decided in time. *)
(* One kind="trace-metrics" record per traced run: the Trace.Metrics
   summary totals plus the per-round histograms. Emitted from the main
   domain (avg_runs runs after the sweep), never from workers, so record
   order is deterministic at any --jobs count. *)
let emit_trace_metrics ~label ms =
  List.iteri
    (fun i (m : run_measure) ->
      match m.metrics with
      | None -> ()
      | Some (s : Trace.Metrics.summary) ->
          let per_round g = Out.L (List.map (fun r -> Out.I (g r)) s.per_round) in
          Out.emit ~kind:"trace-metrics"
            ([
               ("label", Out.S label);
               ("run", Out.I i);
               ("rounds", Out.I s.rounds);
               ("messages", Out.I s.messages);
               ("bits", Out.I s.bits);
               ("omitted", Out.I s.omitted);
               ("corruptions", Out.I s.corruptions);
               ("coin_calls", Out.I s.coin_calls);
               ("coin_bits", Out.I s.coin_bits);
               ("decisions", Out.I s.decisions);
               ("max_round_messages", Out.I s.max_round_messages);
               ("max_round_bits", Out.I s.max_round_bits);
               ("max_round_coin_bits", Out.I s.max_round_coin_bits);
               ( "round_messages",
                 per_round (fun r -> r.Trace.Metrics.messages) );
               ("round_bits", per_round (fun r -> r.Trace.Metrics.bits));
               ( "round_coin_bits",
                 per_round (fun r -> r.Trace.Metrics.coin_bits) );
             ]
            @
            if Out.is_stable () then []
            else [ ("trace_wall_s", Out.F s.wall_total_s) ]))
    ms

let avg_runs ?(label = "") ms =
  emit_trace_metrics ~label ms;
  let total = List.length ms in
  if total = 0 then begin
    skip_point ~label ~reason:"no surviving runs (all quarantined)";
    None
  end
  else begin
    let decided, timed_out = List.partition (fun m -> m.decided) ms in
    if timed_out <> [] && decided <> [] then begin
      Printf.printf
        "  warning%s: %d/%d runs hit max_rounds without deciding; excluded \
         from averages\n"
        (if label = "" then "" else Printf.sprintf " (%s)" label)
        (List.length timed_out) total;
      Out.emit ~kind:"warning"
        [
          ("label", Out.S label);
          ("non_terminated", Out.I (List.length timed_out));
          ("runs", Out.I total);
        ]
    end;
    match decided with
    | [] ->
        skip_point ~label
          ~reason:"no run decided within max_rounds — raise max_rounds";
        None
    | ms ->
        let n = float_of_int (List.length ms) in
        let favg g =
          List.fold_left (fun a m -> a +. float_of_int (g m)) 0. ms /. n
        in
        (* Flag points whose per-seed round counts scatter wildly: an
           averaged row hides a bimodal protocol (e.g. fallback taken on
           some seeds only). Sample variance needs two points —
           Stats.stddev raises on fewer — so the check is guarded. *)
        (if List.length ms >= 2 then begin
           let rounds =
             Array.of_list (List.map (fun m -> float_of_int m.rounds) ms)
           in
           let mean = Stats.mean rounds in
           let sd = Stats.stddev rounds in
           if mean > 0. && sd > 0.5 *. mean then begin
             Printf.printf
               "  warning%s: high round-count variance across seeds (mean \
                %.1f, stddev %.1f)\n"
               (if label = "" then "" else Printf.sprintf " (%s)" label)
               mean sd;
             Out.emit ~kind:"warning"
               [
                 ("label", Out.S label);
                 ("high_variance", Out.S "rounds");
                 ("mean_rounds", Out.F mean);
                 ("stddev_rounds", Out.F sd);
               ]
           end
         end);
        Some
          ( favg (fun m -> m.rounds),
            favg (fun m -> m.bits),
            favg (fun m -> m.rand_bits),
            favg (fun m -> m.messages) )
  end

(* ------------------------------------------------------------------ *)
(* Supervised parameter sweeps.                                        *)
(* ------------------------------------------------------------------ *)

(* The campaign line that reruns the current experiment, with every flag
   that shapes its tasks: what a task that fails outside a spec run
   replays as. *)
let campaign_command () =
  let b = !budget in
  let flag name show = Option.map (fun v -> name ^ " " ^ show v) in
  String.concat " "
    (("dune exec bench/main.exe -- --only " ^ !Out.experiment)
    :: List.filter_map Fun.id
         [
           (if !quick then Some "--quick" else None);
           flag "--seeds" string_of_int !seeds_override;
           flag "--wall-budget" (Printf.sprintf "%.17g")
             b.Supervise.Budget.wall_s;
           flag "--round-budget" string_of_int b.max_rounds;
           flag "--msg-budget" string_of_int b.max_messages;
           flag "--rand-budget" string_of_int b.max_rand_bits;
         ])

(* Parallel parameter sweep: one pool task per (param, seed) pair — finer
   grain than parallelizing over seeds alone — returning the per-param
   result lists in sweep order, successes only. Failed tasks are
   quarantined (reported + counted, with a replay command: the failing
   run's spec when [measure] raised it, else [campaign_command]), so the
   sweep always completes its surviving points.

   [point] names a parameter, with every input that differs between
   quick and full campaigns, for cache keys and quarantine labels. The
   sweep runs through [Supervise.Cached.map] keyed by
   "experiment|point|seed=N" and stored with [codec]: with the store on,
   finished tasks are served from it — bit-identical, since every task is
   a pure function of its (param, seed) — which is how a killed campaign
   resumes.

   This is the one way an experiment runs a task, so every task is
   quarantined on failure and served from --cache. The two timing
   sections, micro-engine and scale, stay outside it and run serially:
   they time runs, which must not share the CPU with pool tasks. *)
let sweep ~codec ~point ~params ~seeds f =
  let tasks =
    Array.of_list
      (List.concat_map (fun p -> List.map (fun s -> (p, s)) seeds) params)
  in
  let describe _ (p, s) =
    {
      Supervise.d_label = Printf.sprintf "%s/seed=%d" (point p) s;
      d_seed = Some s;
      d_replay = Some (campaign_command ());
    }
  in
  let run (p, s) = f p s in
  let results =
    Supervise.Cached.map ~budget:!budget ~describe ?store:!store
      ~key:(fun (p, s) ->
        Printf.sprintf "%s|%s|seed=%d" !Out.experiment (point p) s)
      ~codec run tasks
  in
  (* quarantine failures in task order, then regroup successes per param *)
  Array.iter
    (function Ok _ -> () | Error fl -> quarantine fl)
    results;
  let per_seed = List.length seeds in
  List.mapi
    (fun pi p ->
      let ok = ref [] in
      for k = (pi * per_seed) + per_seed - 1 downto pi * per_seed do
        match results.(k) with Ok v -> ok := v :: !ok | Error _ -> ()
      done;
      (p, !ok))
    params

(* The registry builder of protocol [id]; raises on an unknown id. *)
let registry_build id =
  match Harness.Registry.find id with
  | Ok e -> Harness.Registry.build e
  | Error msg -> invalid_arg msg

(* With quarantined points a sweep can shrink below a fittable sample;
   surface that as nan (emitted as JSON null) instead of raising. *)
let fit_exponent ?(log_power = 0) ns ys =
  if List.length ys < 2 then Float.nan
  else
    Stats.growth_exponent ~log_power
      (Array.of_list (List.map float_of_int ns))
      (Array.of_list ys)
