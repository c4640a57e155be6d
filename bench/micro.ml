(* Bechamel micro-benchmarks: one Test.make per Table-1 experiment (a
   scaled-down instance of each), plus the substrate hot paths. *)

open Bechamel
open Toolkit

let run_protocol make_proto ~n ~t ~adversary () =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed:1 ~max_rounds:20000 () in
  let proto = make_proto cfg in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = Sim.Engine.run proto cfg ~adversary ~inputs in
  assert (Sim.Engine.agreed_decision o <> None)

let test_thm1 =
  Test.make ~name:"T1-thm1: optimal-omissions n=36"
    (Staged.stage
       (run_protocol
          (fun cfg -> Consensus.Optimal_omissions.protocol_buffered cfg)
          ~n:36 ~t:1
          ~adversary:(Adversary.vote_splitter ())))

let test_thm3 =
  Test.make ~name:"T1-thm3: param-omissions n=36 x=4"
    (Staged.stage (fun () ->
         let n = 36 in
         let cfg0 = Sim.Config.make ~n ~t_max:1 ~seed:1 () in
         let max_rounds =
           Consensus.Param_omissions.rounds_needed ~x:4 cfg0 + 5
         in
         let cfg = Sim.Config.make ~n ~t_max:1 ~seed:1 ~max_rounds () in
         let proto = Consensus.Param_omissions.protocol_buffered ~x:4 cfg in
         let inputs = Array.init n (fun i -> i mod 2) in
         let o =
           Sim.Engine.run proto cfg ~adversary:Sim.Adversary_intf.none ~inputs
         in
         assert (Sim.Engine.agreed_decision o <> None)))

let test_bjbo =
  Test.make ~name:"T1-bjbo: biased-majority n=64"
    (Staged.stage
       (run_protocol
          (fun cfg -> Consensus.Bjbo.protocol_buffered cfg)
          ~n:64 ~t:8
          ~adversary:(Adversary.vote_splitter ())))

let test_abraham =
  Test.make ~name:"T1-abraham: flood-min n=64"
    (Staged.stage
       (run_protocol
          Consensus.Flood.protocol_buffered
          ~n:64 ~t:8
          ~adversary:(Adversary.staggered_crash ~per_round:2)))

let test_thm2 =
  Test.make ~name:"T1-thm2: product experiment n=64"
    (Staged.stage (fun () ->
         let r = Lowerbound.Product.run ~seed:1 ~n:64 ~t:16 ~coin_set:8 () in
         assert r.Lowerbound.Product.decided))

let test_coin_game =
  Test.make ~name:"L12: coin game k=1024"
    (Staged.stage (fun () ->
         let rand = Sim.Rand.create ~seed:1L () in
         ignore (Lowerbound.Coin_game.imbalance rand ~k:1024)))

let test_expander =
  Test.make ~name:"G4: expander sample+prune n=256"
    (Staged.stage (fun () ->
         let g = Expander.sample ~n:256 ~delta:64 ~seed:9L in
         let removed = Array.init 256 (fun v -> v < 17) in
         ignore (Expander.prune g ~removed ~min_deg:21)))

(* ------------------------------------------------------------------ *)
(* Engine allocation microbenchmark (the "micro-engine" experiment),   *)
(* covering the full protocol registry on reusable engine instances.   *)
(* The gated metric is allocation only: kind="micro"                   *)
(* rows carry words_per_round and are compared by bench/perf_gate.ml   *)
(* against bench/micro_baseline.json. Throughput (rounds per second)   *)
(* is machine-dependent, so it ships as separate kind=                 *)
(* "micro-throughput" records — a logged artifact, never gated and     *)
(* never part of the stable baseline file.                             *)
(* ------------------------------------------------------------------ *)

module Out = Bench_util.Out

(* [Gc.minor_words] reads the allocation pointer directly, so it is exact
   even when no minor collection has run inside the measurement window —
   [quick_stat.minor_words] is only updated at collections and can lag by
   a whole minor heap. *)
let words_allocated () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Total allocated words (all heaps: the envelope arena and the exact
   window are big enough to be allocated directly on the major heap, so a
   minor-words-only delta would undercount the very arrays the refactor
   removes), total rounds and wall time over [runs] runs of [f]. One
   warmup run first: the reusable {!Sim.Engine.instance} pays its
   one-time buffer construction there — steady-state cost is
   what the perf gate tracks. *)
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

let engine_case ~name ~n ~t ~runs ~buffered =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed:1 ~max_rounds:20000 () in
  let inputs = Array.init n (fun i -> i mod 2) in
  let adversary = Sim.Adversary_intf.none in
  (* lazy so a fully cache-served case never constructs its protocol *)
  let inst = lazy (Sim.Engine.instance (buffered cfg) cfg) in
  let w =
    measure_path ~name ~path:"buffered" ~n ~t ~runs (fun () ->
        Sim.Engine.run_instance (Lazy.force inst) ~adversary ~inputs)
  in
  Bench_util.row "%-14s n=%-4d t=%-3d %12.0f w/rnd buffered\n" name n t w

(* Allocation on the compiled-mask delivery route: the buffered instance
   driven by a structured adversary whose plan carries per-sender masks,
   so an untraced run takes the mask-blit / broadcast-table path the
   scale experiment measures for throughput. Same gated metric
   (words/round), same baseline mechanics, path="masked". The adversary
   is rebuilt per run: strategies close over mutable schedule state. *)
let masked_case ~name ~n ~t ~runs ~buffered ~adversary =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed:1 ~max_rounds:20000 () in
  let inputs = Array.init n (fun i -> i mod 2) in
  let inst = lazy (Sim.Engine.instance (buffered cfg) cfg) in
  let w =
    measure_path ~name ~path:"masked" ~n ~t ~runs (fun () ->
        Sim.Engine.run_instance (Lazy.force inst) ~adversary:(adversary ())
          ~inputs)
  in
  Bench_util.row "%-14s n=%-4d t=%-3d %12.0f w/rnd masked\n" name n t w

(* Every registry protocol is covered, at one size in quick mode and
   two in full mode (dolev-strong relays are O(n^2) per round, hence its
   small sizes); flood adds n=256 and the masked column. *)
let engine_bench ~quick () =
  Bench_util.section "Engine path: allocated words/round (reusable instance)";
  let runs = if quick then 3 else 6 in
  List.iter
    (fun n ->
      engine_case ~name:"flood" ~n ~t:8 ~runs
        ~buffered:Consensus.Flood.protocol_buffered)
    (if quick then [ 64; 256 ] else [ 64; 256; 512 ]);
  (* flood under a compiled-mask crash schedule at the sizes the scale
     sweep gates — allocation on the new delivery route, both modes *)
  List.iter
    (fun n ->
      masked_case ~name:"flood" ~n ~t:8 ~runs
        ~buffered:Consensus.Flood.protocol_buffered
        ~adversary:(fun () ->
          Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]); (3, [ 2 ]) ]))
    [ 256; 1024 ];
  List.iter
    (fun n ->
      engine_case ~name:"dolev-strong" ~n ~t:4 ~runs
        ~buffered:Consensus.Dolev_strong.protocol_buffered)
    (if quick then [ 32 ] else [ 32; 64 ]);
  List.iter
    (fun n ->
      engine_case ~name:"optimal" ~n ~t:2 ~runs
        ~buffered:(fun cfg -> Consensus.Optimal_omissions.protocol_buffered cfg))
    (if quick then [ 24 ] else [ 24; 48 ]);
  (* n = 96 is past the complete-graph range (Delta = 56 < 95), so this row
     gates the sparse spreading path: neighbour positions, disregarding and
     per-group deltas *)
  engine_case ~name:"optimal" ~n:96 ~t:3 ~runs
    ~buffered:(fun cfg -> Consensus.Optimal_omissions.protocol_buffered cfg);
  List.iter
    (fun n ->
      engine_case ~name:"early-stopping" ~n ~t:8 ~runs
        ~buffered:Consensus.Early_stopping.protocol_buffered)
    (if quick then [ 64 ] else [ 64; 128 ]);
  List.iter
    (fun n ->
      engine_case ~name:"bjbo" ~n ~t:8 ~runs
        ~buffered:(fun cfg -> Consensus.Bjbo.protocol_buffered cfg))
    (if quick then [ 64 ] else [ 64; 128 ]);
  List.iter
    (fun n ->
      engine_case ~name:"phase-king" ~n ~t:2 ~runs
        ~buffered:Consensus.Phase_king.protocol_buffered)
    (if quick then [ 24 ] else [ 24; 48 ]);
  List.iter
    (fun n ->
      engine_case ~name:"crash-sub" ~n ~t:2 ~runs
        ~buffered:(fun cfg -> Consensus.Crash_subquadratic.protocol_buffered cfg))
    (if quick then [ 64 ] else [ 64; 128 ]);
  List.iter
    (fun n ->
      engine_case ~name:"param-x2" ~n ~t:1 ~runs
        ~buffered:(fun cfg -> Consensus.Param_omissions.protocol_buffered ~x:2 cfg))
    (if quick then [ 36 ] else [ 36; 72 ]);
  List.iter
    (fun n ->
      engine_case ~name:"operative-broadcast" ~n ~t:8 ~runs
        ~buffered:(fun cfg ->
          Consensus.Operative_broadcast.protocol_buffered ~source:0 cfg))
    (if quick then [ 64 ] else [ 64; 128 ])

let benchmark () =
  let tests =
    [
      test_thm1;
      test_thm3;
      test_bjbo;
      test_abraham;
      test_thm2;
      test_coin_game;
      test_expander;
    ]
  in
  Bench_util.section "Bechamel micro-benchmarks (one per experiment)";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true
                       ~predictors:[| Measure.run |])
          (Instance.monotonic_clock) results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "  %-40s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n%!" name)
        analyzed)
    tests
