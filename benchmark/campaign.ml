(* The campaign workload: many small runs through the public run
   pipeline. Each task is [Run_spec.execute ~store] (protocol build,
   supervision, cache write) into a fresh [Cache.Store]; warm passes then
   serve every task from the store. A cold pass takes under half a
   second, so the plain pass makes as many as fit in the measuring time,
   each into a store of its own.

   Tasks run one after another on one domain. Over two domains the pass
   time followed the load on both vCPUs, and the peak heap depended on
   which tasks happened to overlap: it read either about 5 MB or about
   10 MB from run to run.

   The layered pass also replays every task on a [Sim.Engine.instance]
   with the [Layers] wrappers. That gives the per-phase split of the
   engine time inside campaign tasks, and checks each replayed outcome
   against its task's outcome from the pipeline. *)

let name = "campaign-36"
let adversaries = [ "none"; "crash"; "random"; "splitter" ]

(* Registry id -> the protocol's own buffered constructor, for the
   replay. Registry plumbing is deliberately not used here: it is slated
   to change shape, and the benchmark must keep running across that. *)
let protocols : (string * (Sim.Config.t -> Sim.Protocol_intf.buffered)) list =
  [
    ("flood", Consensus.Flood.protocol_buffered);
    ("early-stopping", Consensus.Early_stopping.protocol_buffered);
    ("bjbo", fun cfg -> Consensus.Bjbo.protocol_buffered cfg);
    ("crash-sub", fun cfg -> Consensus.Crash_subquadratic.protocol_buffered cfg);
    ("dolev-strong", Consensus.Dolev_strong.protocol_buffered);
    ("phase-king", Consensus.Phase_king.protocol_buffered);
    ("optimal", fun cfg -> Consensus.Optimal_omissions.protocol_buffered cfg);
    ("param-x2", fun cfg -> Consensus.Param_omissions.protocol_buffered ~x:2 cfg);
    ( "operative-broadcast",
      fun cfg -> Consensus.Operative_broadcast.protocol_buffered ~source:0 cfg );
  ]

(* Every registered protocol x adversary at n = 32, each at the
   protocol's largest tolerated t: 9 x 4 = 36 tasks, or 18 at toy
   size. *)
let specs ~toy ~seed =
  let n = 32 and advs = if toy then [ "none"; "splitter" ] else adversaries in
  Harness.Registry.all
  |> List.concat_map (fun (e : Harness.Registry.entry) ->
         List.map
           (fun adversary ->
             Run_spec.make ~adversary ~protocol:e.id ~n ~t_max:(e.max_t n) ~seed ())
           advs)
  |> Array.of_list

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let root = ".benchmark_work"

(* A private scratch directory under the working directory, removed
   whatever happens. *)
let with_work_dir f =
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  (* left behind by a killed run whose pid this one reuses *)
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* One pass: every task's result with its wall time in ns. *)
let pass store specs =
  Array.map
    (fun spec ->
      let t0 = Layers.now_ns () in
      let res = Run_spec.execute ~store spec in
      (res, Layers.now_ns () - t0))
    specs

let outcome_string = function
  | Ok (o, _) -> Some (Supervise.Cached.outcome_to_string o)
  | Error _ -> None

(* The engine configuration [Run_spec.execute] uses for [spec]. *)
let config (spec : Run_spec.t) =
  let e = Result.fold ~ok:Fun.id ~error:failwith (Harness.Registry.find spec.protocol) in
  let cfg0 = Sim.Config.make ~n:spec.n ~t_max:spec.t_max ~seed:spec.seed () in
  { cfg0 with Sim.Config.max_rounds = Harness.Registry.rounds_bound e cfg0 }

let run r ~toy ~seed ~seconds ~layered =
  let specs = specs ~toy ~seed in
  with_work_dir @@ fun dir ->
  (* A cold pass into a fresh store, from a collected heap: the store,
     per-task results, wall ns and words allocated. *)
  let cold sub =
    let store = Cache.Store.open_ ~dir:(Filename.concat dir sub) () in
    Gc.full_major ();
    let w0 = Layers.all_words () in
    let t0 = Layers.now_ns () in
    let res = pass store specs in
    let wall = Layers.now_ns () - t0 in
    let words = Layers.all_words () -. w0 in
    Array.iteri
      (fun i (x, _) ->
        Report.check r (Result.is_ok x) "task failed: %s" (Run_spec.to_command specs.(i)))
      res;
    (store, res, wall, words)
  in
  let store, res, wall, words = cold "cold-1" in
  let peak = Engine_workload.peak_heap_mb () in
  let expected i = outcome_string (fst res.(i)) in
  let same res' what =
    Array.iteri
      (fun i (x, _) ->
        Report.check r
          (outcome_string x <> None && outcome_string x = expected i)
          "%s differs from the first cold pass: %s" what (Run_spec.to_command specs.(i)))
      res'
  in
  (* The campaign's set-up is opening the filled store. The samples are
     spread over the later cold passes, so they see more than one
     moment's host. *)
  let open_ns = ref [] in
  let opens =
    {
      Engine_workload.taken = 0;
      take =
        (fun () ->
          let t0 = Layers.now_ns () in
          let s = Cache.Store.open_ ~dir:(Cache.Store.dir store) () in
          open_ns := float_of_int (Layers.now_ns () - t0) :: !open_ns;
          Cache.Store.close s);
    }
  in
  let walls = ref [ float_of_int wall ] in
  if not layered then begin
    (* a slow-host stretch then costs a few samples, not the run *)
    let k = ref 1 in
    Engine_workload.repeat ~after:(Engine_workload.due opens) ~seconds ~min_runs:1
      (fun () ->
        incr k;
        let sub = Printf.sprintf "cold-%d" !k in
        let store', res', wall', _ = cold sub in
        Cache.Store.close store';
        rm_rf (Filename.concat dir sub);
        same res' "later cold pass";
        walls := float_of_int wall' :: !walls)
  end;
  (* ten warm passes: every task a hit, byte-equal to the cold pass *)
  let hit_ns = ref [] in
  for _ = 1 to 10 do
    let res' = pass store specs in
    same res' "warm result";
    Array.iter (fun (_, ns) -> hit_ns := float_of_int ns :: !hit_ns) res'
  done;
  let stats = Cache.Store.stats store in
  Cache.Store.close store;
  Engine_workload.due opens 1.;
  let store_s = Report.low (Array.of_list !open_ns) /. 1e9 in
  if not layered then begin
    let rounds =
      Array.fold_left
        (fun acc (x, _) -> match x with Ok (o, _) -> acc + o.Sim.Engine.rounds_total | Error _ -> acc)
        0 res
    in
    Report.add r ~samples:Engine_workload.setups "setup_s" "s" store_s;
    Report.add r ~samples:(List.length !walls) "decide_s" "s"
      (Report.low (Array.of_list !walls) /. 1e9);
    Report.add r ~samples:(Array.length specs) "words_per_round" "words"
      (words /. float_of_int (max 1 rounds));
    Report.add r ~samples:1 "peak_heap_mb" "MB" peak
  end
  else begin
    (* Replay every task on the engine, once plain and once wrapped, on
       instances of their own. *)
    let spans = Layers.create () in
    let build_ns = ref [] and inst_ns = ref [] in
    let plain_ns = ref 0 and layered_ns = ref 0 in
    let runs = ref 0 and rounds = ref 0 and msgs = ref 0 and coverage = ref 1. in
    Array.iteri
      (fun i (spec : Run_spec.t) ->
        let build =
          match List.assoc_opt spec.protocol protocols with
          | Some b -> b
          | None -> failwith ("no replay constructor for protocol " ^ spec.protocol)
        in
        let cfg = config spec in
        let adversary = Run_spec.adversary spec and inputs = Run_spec.inputs spec in
        let replayed (o : Sim.Engine.outcome) =
          Report.check r
            (Some (Supervise.Cached.outcome_to_string o) = expected i)
            "engine replay differs from the pipeline: %s" (Run_spec.to_command spec)
        in
        let t0 = Layers.now_ns () in
        let p = build cfg in
        let t1 = Layers.now_ns () in
        let inst = Sim.Engine.instance p cfg in
        let t2 = Layers.now_ns () in
        build_ns := float_of_int (t1 - t0) :: !build_ns;
        inst_ns := float_of_int (t2 - t1) :: !inst_ns;
        let o = Sim.Engine.run_instance inst ~adversary ~inputs in
        plain_ns := !plain_ns + Layers.now_ns () - t2;
        replayed o;
        let linst = Sim.Engine.instance (Layers.protocol spans (build cfg)) cfg in
        let o, ns, cov =
          Layers.run spans (fun () ->
              Sim.Engine.run_instance linst ~adversary:(Layers.adversary_of spans adversary)
                ~inputs)
        in
        replayed o;
        layered_ns := !layered_ns + ns;
        incr runs;
        rounds := !rounds + o.rounds_total;
        msgs := !msgs + o.messages_sent;
        coverage := Float.min !coverage cov)
      specs;
    let tasks = Array.length specs in
    let task_ms = Array.map (fun (_, ns) -> float_of_int ns /. 1e6) res in
    Layers.report spans r ~runs:!runs ~rounds:!rounds ~coverage:!coverage;
    (* over different protocols: the median is the typical build *)
    Report.add r ~samples:!runs "setup.protocol_s" "s"
      (Report.median (Array.of_list !build_ns) /. 1e9);
    Report.add r ~samples:!runs "setup.instance_s" "s"
      (Report.median (Array.of_list !inst_ns) /. 1e9);
    Report.add r ~samples:!runs "msgs_per_round" "count"
      (float_of_int !msgs /. float_of_int (max 1 !rounds));
    Report.add r ~samples:1 "trace.events_per_round" "count" 0.;
    let overhead = float_of_int !layered_ns /. float_of_int (max 1 !plain_ns) in
    Report.add r ~samples:!runs "trace_overhead" "ratio" overhead
      ?flag:(if overhead > 1.05 then Some "layered replay over 5% slower" else None);
    Report.add r ~extra:true ~samples:tasks "task.ms_p50" "ms" (Report.median task_ms);
    Report.add r ~extra:true ~samples:tasks "task.ms_p95" "ms" (Report.percentile 0.95 task_ms);
    Report.add r ~extra:true ~samples:(List.length !hit_ns) "cache.hit_us" "us"
      (Report.median (Array.of_list !hit_ns) /. 1e3);
    Report.add r ~extra:true ~samples:1 "cache.hits" "count" (float_of_int stats.Cache.Stats.hits);
    Report.add r ~extra:true ~samples:1 "cache.misses" "count" (float_of_int stats.misses);
    Report.add r ~extra:true ~samples:1 "cache.writes" "count" (float_of_int stats.writes);
    Report.add r ~extra:true ~samples:Engine_workload.setups "setup.store_s" "s" store_s
  end
