(* Ablations over the design constants DESIGN.md substitution 1 scales from
   the paper: expander degree, spreading duration, and epoch count. Each
   table shows what the constant buys (resilience, probability of avoiding
   the deterministic fallback) and what it costs (bits, rounds). *)

open Bench_util

(* A round-level sink folding the Phase events into the fewest operative
   processes at any round's end; every process starts operative. *)
let min_operative n =
  let operative = Array.make n true and count = ref n and low = ref n in
  let emit = function
    | Trace.Event.Phase { pid; operative = op; _ } when op <> operative.(pid) ->
        operative.(pid) <- op;
        count := !count + if op then 1 else -1
    | Round_end _ -> low := min !low !count
    | _ -> ()
  in
  (Trace.Sink.rounds (Trace.Sink.make ~emit ~close:ignore), fun () -> !low)

(* Algorithm 1 under [params], which no spec names: the run passes its
   own builder, so a failure replays as the campaign line. *)
let run_with_params ~params ~n ~t ~seed adversary =
  let trace, low = min_operative n in
  let m =
    measure ~trace
      ~builder:(Consensus.Optimal_omissions.builder ~params ())
      (spec ~protocol:"optimal" ~n ~t ~seed adversary)
  in
  (m, low ())

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
  let with_c c =
    { Consensus.Params.default with Consensus.Params.delta_c = c }
  in
  sweep ~codec:Cache.Codec.(pair measure_codec int)
    ~point:(fun c -> Printf.sprintf "n=%d/c=%d" n c)
    ~params:[ 2; 4; 8; 12 ] ~seeds:[ 1 ]
    (fun c seed ->
      run_with_params ~params:(with_c c) ~n ~t ~seed
        (Printf.sprintf "strike(rnd%d,p100)" n))
  |> List.iter (fun (c, rs) ->
         List.iter
           (fun (m, min_ops) ->
             let delta = Consensus.Params.delta (with_c c) ~n in
             row "%8d %8d %10d %14d %14d %8d\n" c delta m.rounds m.bits
               min_ops
               (n - (3 * t));
             Out.emit
               [
                 ("c", Out.I c); ("delta", Out.I delta);
                 ("rounds", Out.I m.rounds); ("comm_bits", Out.I m.bits);
                 ("min_operative", Out.I min_ops);
                 ("operative_bound", Out.I (n - (3 * t)));
               ])
           rs)

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
  sweep ~codec:Cache.Codec.(pair measure_codec int)
    ~point:(fun c -> Printf.sprintf "n=%d/c=%d" n c)
    ~params:[ 1; 2; 4 ] ~seeds:[ 1 ]
    (fun c seed ->
      let params =
        { Consensus.Params.default with Consensus.Params.spread_c = c }
      in
      run_with_params ~params ~n ~t ~seed "splitter")
  |> List.iter (fun (c, rs) ->
         List.iter
           (fun (m, min_ops) ->
             row "%8d %10d %10b %14d %14d\n" c m.rounds m.decided m.bits
               min_ops;
             Out.emit
               [
                 ("c", Out.I c); ("rounds", Out.I m.rounds);
                 ("decided", Out.B m.decided); ("comm_bits", Out.I m.bits);
                 ("min_operative", Out.I min_ops);
               ])
           rs)

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
        let m, _ = run_with_params ~params ~n ~t ~seed "splitter" in
        (* compute the voting-phase length for this parameterization *)
        let voting_end =
          Consensus.Core.schedule_length ~params ~t_max:t n + 1
        in
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
