(* Ablations over the design constants DESIGN.md substitution 1 scales from
   the paper: expander degree, spreading duration, and epoch count. Each
   table shows what the constant buys (resilience, probability of avoiding
   the deterministic fallback) and what it costs (bits, rounds). *)

open Bench_util

let probe_min_operative adversary min_ops =
  {
    Sim.Adversary_intf.name = adversary.Sim.Adversary_intf.name;
    create =
      (fun cfg rand ->
        let inner = adversary.Sim.Adversary_intf.create cfg rand in
        fun view ->
          let ops =
            Array.fold_left
              (fun a o -> if o.Sim.View.core.operative then a + 1 else a)
              0 view.Sim.View.obs
          in
          if ops < !min_ops then min_ops := ops;
          inner view);
  }

let run_with_params ~params ~n ~t ~seed ~adversary =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:20000 () in
  let proto = Consensus.Optimal_omissions.protocol_buffered ~params cfg in
  let inputs = Array.init n (fun i -> i mod 2) in
  let min_ops = ref max_int in
  let m = measure proto cfg ~adversary:(probe_min_operative adversary min_ops) ~inputs in
  (m, !min_ops)

(* A1: expander degree constant. *)
let abl_delta ~quick () =
  section "ABL-delta: expander degree Delta = c * log2 n (paper: c = 832)";
  Printf.printf
    "Smaller c saves spreading bits but erodes the operative margin under \
     omissions.\n";
  let n = if quick then 100 else 144 in
  let t = max 1 (n / 31) in
  row "%8s %8s %10s %14s %14s %8s\n" "c" "Delta" "rounds" "comm bits"
    "min operative" "n-3t";
  Supervise.Cached.map ~budget:!budget
    ~describe:(fun _ c ->
      {
        Supervise.d_label = Printf.sprintf "abl-delta/c=%d" c;
        d_seed = Some 1;
        d_replay = Some "dune exec bench/main.exe -- --only abl-delta";
      })
    ?store:!store
    ~key:(fun c -> Printf.sprintf "abl-delta|n=%d|c=%d" n c)
    ~codec:Cache.Codec.(triple (pair int int) measure_codec int)
    (fun c ->
      let params = { Consensus.Params.default with Consensus.Params.delta_c = c } in
      let m, min_ops =
        run_with_params ~params ~n ~t ~seed:1
          ~adversary:(Adversary.random_omission ~p_omit:1.0)
      in
      ((c, Consensus.Params.delta params ~n), m, min_ops))
    [| 2; 4; 8; 12 |]
  |> Array.iter (function
       | Error fl -> quarantine fl
       | Ok ((c, delta), m, min_ops) ->
           row "%8d %8d %10d %14d %14d %8d\n" c delta m.rounds m.bits min_ops
             (n - (3 * t));
           Out.emit
             [
               ("c", Out.I c); ("delta", Out.I delta);
               ("rounds", Out.I m.rounds); ("comm_bits", Out.I m.bits);
               ("min_operative", Out.I min_ops);
               ("operative_bound", Out.I (n - (3 * t)));
             ])

(* A2: spreading rounds multiplier. *)
let abl_spread ~quick () =
  section "ABL-spread: spreading rounds = c * log2 n (paper: 8 log n)";
  Printf.printf
    "More spreading rounds cost bits linearly; the dense core's diameter is \
     tiny at\nthese sizes, so extra rounds buy nothing once the counts have \
     flooded.\n";
  let n = if quick then 100 else 144 in
  let t = max 1 (n / 31) in
  row "%8s %10s %10s %14s %14s\n" "c" "rounds" "decided" "comm bits"
    "min operative";
  Supervise.Cached.map ~budget:!budget
    ~describe:(fun _ c ->
      {
        Supervise.d_label = Printf.sprintf "abl-spread/c=%d" c;
        d_seed = Some 1;
        d_replay = Some "dune exec bench/main.exe -- --only abl-spread";
      })
    ?store:!store
    ~key:(fun c -> Printf.sprintf "abl-spread|n=%d|c=%d" n c)
    ~codec:Cache.Codec.(triple int measure_codec int)
    (fun c ->
      let params = { Consensus.Params.default with Consensus.Params.spread_c = c } in
      let m, min_ops =
        run_with_params ~params ~n ~t ~seed:1
          ~adversary:(Adversary.vote_splitter ())
      in
      (c, m, min_ops))
    [| 1; 2; 4 |]
  |> Array.iter (function
       | Error fl -> quarantine fl
       | Ok (c, m, min_ops) ->
           row "%8d %10d %10b %14d %14d\n" c m.rounds m.decided m.bits min_ops;
           Out.emit
             [
               ("c", Out.I c); ("rounds", Out.I m.rounds);
               ("decided", Out.B m.decided); ("comm_bits", Out.I m.bits);
               ("min_operative", Out.I min_ops);
             ])

(* A3: epoch count vs fallback engagement. *)
let abl_epochs ~quick () =
  section "ABL-epochs: epoch count vs deterministic-fallback engagement";
  Printf.printf
    "Each good epoch unifies the votes with constant probability; too few \
     epochs leave\nundecided processes that must run the O(t)-round \
     fallback (the paper's whp argument).\n";
  let n = if quick then 64 else 100 in
  let t = max 1 (n / 31) in
  let seeds = Bench_util.seed_list [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  (* the voting part ends after epochs * epoch_len + 2; later decisions
     mean the fallback ran *)
  row "%8s %12s %16s %12s\n" "epochs" "avg rounds" "fallback runs"
    "avg bits";
  let per_e =
    sweep ~codec:Cache.Codec.(pair measure_codec bool)
      (* n in the point: quick and full campaigns use different sizes and
         must not share cache entries under the same key *)
      ~point:(fun e -> Printf.sprintf "n=%d/epochs=%d" n e)
      ~params:[ 1; 2; 4; 8; 12 ] ~seeds (fun e seed ->
        let params =
          { Consensus.Params.default with Consensus.Params.epochs = Consensus.Params.Fixed e }
        in
        let m, _ =
          run_with_params ~params ~n ~t ~seed
            ~adversary:(Adversary.vote_splitter ())
        in
        (* compute the voting-phase length for this parameterization *)
        let members = Array.init n (fun i -> i) in
        let sh =
          Consensus.Core.make_shared ~members ~seed:1 ~params ~t_max:t ()
        in
        let voting_end = Consensus.Core.rounds sh + 1 in
        (m, m.rounds > voting_end))
  in
  List.iter
    (fun (e, results) ->
      if results = [] then
        skip_point
          ~label:(Printf.sprintf "epochs=%d" e)
          ~reason:"no surviving runs (all quarantined)"
      else
      let fallbacks =
        List.length (List.filter (fun (_, fb) -> fb) results)
      in
      let k = float_of_int (List.length results) in
      let avg g =
        List.fold_left (fun a (m, _) -> a +. float_of_int (g m)) 0. results
        /. k
      in
      let rounds = avg (fun m -> m.rounds) and bits = avg (fun m -> m.bits) in
      row "%8d %12.0f %11d/%-4d %12.0f\n" e rounds fallbacks
        (List.length results) bits;
      Out.emit
        [
          ("epochs", Out.I e); ("avg_rounds", Out.F rounds);
          ("fallback_runs", Out.I fallbacks);
          ("seeds", Out.I (List.length results)); ("avg_bits", Out.F bits);
        ])
    per_e

let all ~quick () =
  abl_delta ~quick ();
  abl_spread ~quick ();
  abl_epochs ~quick ()
