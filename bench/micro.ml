(* Engine allocation microbenchmark (the "micro-engine" experiment),
   covering the full protocol registry on reusable engine instances. The
   gated metric is allocation only: kind="micro" rows carry
   words_per_round and are compared by bench/perf_gate.ml against
   bench/micro_baseline.json. Throughput (rounds per second) is
   machine-dependent, so it ships as separate kind="micro-throughput"
   records — a logged artifact, never gated and never part of the stable
   baseline file. *)

module Out = Bench_util.Out

(* [Gc.minor_words] reads the allocation pointer directly, so it is exact
   even when no minor collection has run inside the measurement window —
   [quick_stat.minor_words] is only updated at collections and can lag by
   a whole minor heap. *)
let words_allocated () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Total allocated words (all heaps: a mailbox array grown past the
   minor-heap size limit is allocated directly on the major heap, so a
   minor-words-only delta would undercount it), total rounds and wall
   time over [runs] runs of [f]. One warmup run first: the reusable
   {!Sim.Engine.instance} pays its one-time buffer construction there —
   steady-state cost is what the perf gate tracks. *)
let measure_runs f ~runs =
  ignore (f () : Sim.Engine.outcome);
  Gc.full_major ();
  let w0 = words_allocated () in
  let t0 = Unix.gettimeofday () in
  let rounds = ref 0 in
  for _ = 1 to runs do
    let o = f () in
    rounds := !rounds + o.Sim.Engine.rounds_total
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let w1 = words_allocated () in
  (w1 -. w0, !rounds, wall)

(* One (protocol, path, n) measurement: cache lookup, the gated
   kind="micro" row, the logged kind="micro-throughput" row. Shared by
   the buffered and masked columns below.

   Allocation counts are a pure function of the case (runs are
   seeded, the allocator is deterministic), so they cache like any
   other run result: the payload is (words_per_round, rounds), the
   float bit-exact. Throughput never caches:
   it measures this machine's clock, and a hit skips its row just
   as --stable-json omits it. *)
let measure_path ~name ~path ~n ~t ~runs f =
  let key =
    Printf.sprintf "micro-engine|%s|%s|n=%d|t=%d|runs=%d" name path n t runs
  in
    let codec = Cache.Codec.(pair float int) in
    let cached =
      Option.bind !Bench_util.store (fun s ->
          Cache.Store.lookup s ~decode:(Cache.Codec.decode codec) key)
    in
    let wpr, rounds, fresh_wall =
      match cached with
      | Some (wpr, rounds) -> (wpr, rounds, None)
      | None ->
          let words, rounds, wall = measure_runs f ~runs in
          let wpr = words /. float_of_int (max 1 rounds) in
          Option.iter
            (fun s ->
              Cache.Store.add s ~key (Cache.Codec.encode codec (wpr, rounds)))
            !Bench_util.store;
          (wpr, rounds, Some wall)
    in
    Out.emit ~kind:"micro"
      [
        ("protocol", Out.S name);
        ("path", Out.S path);
        ("n", Out.I n);
        ("t", Out.I t);
        ("runs", Out.I runs);
        ("rounds", Out.I rounds);
        ("words_per_round", Out.F wpr);
      ];
    (* throughput is a logged artifact only — machine-dependent, so it is
       neither gated by perf_gate nor written in stable (baseline) mode *)
    (match fresh_wall with
    | Some wall when not (Out.is_stable ()) ->
        Out.emit ~kind:"micro-throughput"
          [
            ("protocol", Out.S name);
            ("path", Out.S path);
            ("n", Out.I n);
            ("rounds_per_sec", Out.F (float_of_int rounds /. wall));
          ]
    | _ -> ());
  wpr

(* One instance of registry protocol [name], one adversary and one
   [path] column name. The
   adversary is rebuilt per run: strategies close over mutable schedule
   state, as is [trace], the run's sink. Which delivery route a run
   takes depends on the adversary's plan: [Sim.Adversary_intf.none] and
   crash schedules give per-sender masks (the mask route,
   path="buffered", "masked" and "tail"), a randomized predicate
   takes the general per-message route (path="pointwise"). *)
let case ?(trace = fun () -> None) ~name ~path ~n ~t ~runs ~adversary () =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed:1 ~max_rounds:20000 () in
  let inputs = Array.init n (fun i -> i mod 2) in
  (* lazy so a fully cache-served case never constructs its protocol *)
  let inst =
    lazy (Sim.Engine.instance (Bench_util.registry_build name cfg) cfg)
  in
  let w =
    measure_path ~name ~path ~n ~t ~runs (fun () ->
        Sim.Engine.run_instance ?trace:(trace ()) (Lazy.force inst)
          ~adversary:(adversary ()) ~inputs)
  in
  Bench_util.row "%-14s n=%-4d t=%-3d %12.0f w/rnd %s\n" name n t w path

let engine_case ~name ~n ~t ~runs =
  case ~name ~path:"buffered" ~n ~t ~runs
    ~adversary:(fun () -> Sim.Adversary_intf.none)
    ()

let three_crashes () =
  Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]); (3, [ 2 ]) ]

(* Every registry protocol is covered, at one size in quick mode and
   two in full mode (dolev-strong relays are O(n^2) per round, hence its
   small sizes); flood adds n=256 and the masked and pointwise
   columns. *)
let engine_bench ~quick () =
  Bench_util.section "Engine path: allocated words/round (reusable instance)";
  let runs = if quick then 3 else 6 in
  List.iter (fun n -> engine_case ~name:"flood" ~n ~t:8 ~runs)
    (if quick then [ 64; 256 ] else [ 64; 256; 512 ]);
  (* flood under a mask-plan crash schedule at the sizes the scale
     sweep gates: allocation on the mask route, both modes *)
  List.iter
    (fun n ->
      case ~name:"flood" ~path:"masked" ~n ~t:8 ~runs
        ~adversary:three_crashes ())
    [ 256; 1024 ];
  (* the same runs recording a 5-round trace tail: message-level events
     from both walks of the mask route, stored without allocation *)
  List.iter
    (fun n ->
      case ~name:"flood" ~path:"tail" ~n ~t:8 ~runs ~adversary:three_crashes
        ~trace:(fun () ->
          Some (Trace.Tail.sink (Trace.Tail.create ~rounds:5 ())))
        ())
    [ 256; 1024 ];
  (* flood under randomized omissions: a predicate plan, so every message
     takes the general route's per-message verdict walk *)
  List.iter
    (fun n ->
      case ~name:"flood" ~path:"pointwise" ~n ~t:8 ~runs
        ~adversary:(fun () -> Adversary.random_omission ~p_omit:0.5)
        ())
    [ 256; 1024 ];
  List.iter (fun n -> engine_case ~name:"dolev-strong" ~n ~t:4 ~runs)
    (if quick then [ 32 ] else [ 32; 64 ]);
  List.iter (fun n -> engine_case ~name:"optimal" ~n ~t:2 ~runs)
    (if quick then [ 24 ] else [ 24; 48 ]);
  (* n = 96 is past the complete-graph range (Delta = 56 < 95), so this row
     gates the sparse spreading path: neighbour positions, disregarding and
     per-group deltas *)
  engine_case ~name:"optimal" ~n:96 ~t:3 ~runs;
  List.iter (fun n -> engine_case ~name:"early-stopping" ~n ~t:8 ~runs)
    (if quick then [ 64 ] else [ 64; 128 ]);
  List.iter (fun n -> engine_case ~name:"bjbo" ~n ~t:8 ~runs)
    (if quick then [ 64 ] else [ 64; 128 ]);
  List.iter (fun n -> engine_case ~name:"phase-king" ~n ~t:2 ~runs)
    (if quick then [ 24 ] else [ 24; 48 ]);
  List.iter (fun n -> engine_case ~name:"crash-sub" ~n ~t:2 ~runs)
    (if quick then [ 64 ] else [ 64; 128 ]);
  List.iter (fun n -> engine_case ~name:"param-x2" ~n ~t:1 ~runs)
    (if quick then [ 36 ] else [ 36; 72 ]);
  List.iter (fun n -> engine_case ~name:"operative-broadcast" ~n ~t:8 ~runs)
    (if quick then [ 64 ] else [ 64; 128 ])

