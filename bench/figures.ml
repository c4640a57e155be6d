(* Figure and appendix experiments: the structural mechanisms the paper's
   Figures 1-3 illustrate, the Theorem 4 graph properties, and the Lemma 12
   coin game. *)

open Bench_util

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 — sqrt-decomposition + overlay expander.               *)
(* ------------------------------------------------------------------ *)

let f1 ~quick () =
  section "F1: Figure 1 — sqrt-decomposition with an expander overlay";
  let ns = if quick then [ 64; 256; 1024 ] else [ 64; 256; 1024; 4096 ] in
  row "%6s %8s %10s %7s %16s %10s\n" "n" "groups" "group sz" "Delta"
    "degree min/max" "edges";
  sweep
    ~codec:Cache.Codec.(triple (pair int int) (pair int int) (pair int int))
    ~point:(fun n -> Printf.sprintf "n=%d" n)
    ~params:ns ~seeds:[ 11 ]
    (fun n seed ->
      let part = Groups.sqrt_partition n in
      let delta = Expander.default_delta n in
      let g = Expander.create_good ~n ~delta ~seed:(Int64.of_int seed) () in
      let dmin = ref max_int and dmax = ref 0 in
      for v = 0 to n - 1 do
        let d = Expander.degree g v in
        if d < !dmin then dmin := d;
        if d > !dmax then dmax := d
      done;
      ( (Groups.group_count part, part.Groups.group_size),
        (delta, !dmin),
        (!dmax, Expander.edge_count g) ))
  |> List.iter (fun (n, rs) ->
         List.iter
           (fun ((groups, gsize), (delta, dmin), (dmax, edges)) ->
             row "%6d %8d %10d %7d %10d/%-5d %10d\n" n groups gsize delta
               dmin dmax edges;
             Out.emit
               [
                 ("n", Out.I n); ("groups", Out.I groups);
                 ("group_size", Out.I gsize); ("delta", Out.I delta);
                 ("degree_min", Out.I dmin); ("degree_max", Out.I dmax);
                 ("edges", Out.I edges);
               ])
           rs);
  Printf.printf
    "(the overlay graph is independent of the decomposition, exactly as in \
     the figure)\n"

(* ------------------------------------------------------------------ *)
(* F2: Figure 2 — the 3-round relay trace inside one epoch.            *)
(* ------------------------------------------------------------------ *)

let f2 ~quick:_ () =
  section "F2: Figure 2 — binary-tree aggregation trace (one epoch)";
  let n = 256 in
  let t = max 1 (n / 31) in
  let inputs = Array.init n (fun i -> i mod 2) in
  let part = Groups.sqrt_partition n in
  let s = part.Groups.group_size in
  let stages = Groups.stages s in
  let spread = Consensus.Params.spread_rounds Consensus.Params.default ~n in
  let epoch_len = (3 * stages) + spread in
  Printf.printf
    "n=%d: groups of %d, %d relay stages x 3 rounds + %d spreading rounds \
     per epoch\n\n"
    n s stages spread;
  row "%6s %-12s %10s %12s %14s\n" "slot" "kind" "messages" "bits"
    "bits/group";
  (* the per-slot trace is collected inside the task and returned as its
     result, so a cache hit restores the whole figure without a run *)
  match
    sweep ~codec:Cache.Codec.(list (triple int int int))
      ~point:(fun n -> Printf.sprintf "n=%d" n)
      ~params:[ n ] ~seeds:[ 4 ]
      (fun n seed ->
        let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:20000 () in
        let proto = Consensus.Optimal_omissions.protocol_buffered cfg in
        let trace, summary = Trace.Metrics.collector ~clock:(fun () -> 0.) () in
        let (_ : run_measure) =
          measure ~trace proto cfg ~adversary:(Adversary.group_killer ())
            ~inputs
        in
        List.filter_map
          (fun (r : Trace.Metrics.per_round) ->
            if r.round <= epoch_len then Some (r.round, r.messages, r.bits)
            else None)
          (summary ()).per_round)
    |> List.concat_map snd
  with
  | [] -> ()
  | slots :: _ ->
  let trace = Hashtbl.create 64 in
  List.iter (fun (s, msgs, bits) -> Hashtbl.replace trace s (msgs, bits)) slots;
  for slot = 1 to epoch_len do
    let kind =
      if slot <= 3 * stages then begin
        let stage = ((slot - 1) / 3) + 1 in
        match (slot - 1) mod 3 with
        | 0 -> Printf.sprintf "A%d counts" stage
        | 1 -> Printf.sprintf "B%d confirm" stage
        | _ -> Printf.sprintf "C%d relay" stage
      end
      else Printf.sprintf "S%d spread" (slot - (3 * stages))
    in
    let msgs, bits = try Hashtbl.find trace slot with Not_found -> (0, 0) in
    row "%6d %-12s %10d %12d %14.0f\n" slot kind msgs bits
      (float_of_int bits /. float_of_int (Groups.group_count part));
    Out.emit
      [
        ("slot", Out.I slot); ("slot_kind", Out.S kind);
        ("messages", Out.I msgs); ("bits", Out.I bits);
        ("bits_per_group",
         Out.F (float_of_int bits /. float_of_int (Groups.group_count part)));
      ]
  done;
  let agg_bits =
    let acc = ref 0 in
    for slot = 1 to 3 * stages do
      match Hashtbl.find_opt trace slot with
      | Some (_, b) -> acc := !acc + b
      | None -> ()
    done;
    !acc
  in
  let log2n = log (float_of_int n) /. log 2. in
  Out.emit ~kind:"fit"
    [
      ("n", Out.I n);
      ("agg_bits_per_group", Out.I (agg_bits / Groups.group_count part));
      ("lemma2_bound", Out.F (float_of_int n *. log2n *. log2n));
    ];
  Printf.printf
    "\naggregation bits per group per epoch: %d (Lemma 2 bound shape: n \
     log^2 n = %.0f)\n"
    (agg_bits / Groups.group_count part)
    (float_of_int n *. log2n *. log2n);
  Printf.printf
    "(run under the group-killer adversary: like process c in Figure 2, \
     group 0's corrupted\n members are excluded from the counts while every \
     other group aggregates normally)\n"

(* ------------------------------------------------------------------ *)
(* F3: Figure 3 — the voting thresholds in action.                     *)
(* ------------------------------------------------------------------ *)

let f3 ~quick () =
  section "F3: Figure 3 — biased-majority threshold dynamics";
  let n = if quick then 144 else 400 in
  let t = max 1 (n / 31) in
  (* the task runs the protocol with the vote log attached and reduces
     the log to per-epoch aggregates — the cacheable figure content *)
  let task n seed =
    let log = ref [] in
    let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:20000 () in
    let proto = Consensus.Optimal_omissions.protocol_buffered ~vote_log:log cfg in
    let inputs = Array.init n (fun i -> i mod 2) in
    let (_ : run_measure) =
      measure proto cfg ~adversary:(Adversary.vote_splitter ()) ~inputs
    in
    let events = List.rev !log in
    let epochs =
      List.sort_uniq compare
        (List.map (fun e -> e.Consensus.Core.ev_epoch) events)
    in
    List.map
      (fun ep ->
        let evs =
          List.filter (fun e -> e.Consensus.Core.ev_epoch = ep) events
        in
        let frac e =
          float_of_int e.Consensus.Core.ev_ones
          /. float_of_int (e.ev_ones + e.ev_zeros)
        in
        let mean =
          List.fold_left (fun a e -> a +. frac e) 0. evs
          /. float_of_int (List.length evs)
        in
        let count p = List.length (List.filter p evs) in
        let starts p e =
          let r = e.Consensus.Core.ev_rule in
          String.length r >= String.length p
          && String.sub r 0 (String.length p) = p
        in
        ( (ep, mean),
          (count (starts "one"), count (starts "zero")),
          ( count (starts "coin"),
            count (fun e ->
                let r = e.Consensus.Core.ev_rule in
                String.length r > 8) ) ))
      epochs
  in
  match
    sweep
      ~codec:
        Cache.Codec.(
          list (triple (pair int float) (pair int int) (pair int int)))
      ~point:(fun n -> Printf.sprintf "n=%d" n)
      ~params:[ n ] ~seeds:[ 12 ] task
    |> List.concat_map snd
  with
  | [] -> ()
  | rows :: _ ->
  Printf.printf
    "n=%d under the vote-splitting adversary; per epoch: the ones-fraction \
     each operative\nprocess computed and which Figure-3 rule fired.\n\n" n;
  row "%6s %10s %8s %8s %8s %9s\n" "epoch" "mean 1s%" "set-1" "set-0" "coin"
    "decided";
  List.iter
    (fun ((ep, mean), (set_one, set_zero), (coin, decided)) ->
      row "%6d %9.1f%% %8d %8d %8d %9d\n" ep (100. *. mean) set_one set_zero
        coin decided;
      Out.emit
        [
          ("epoch", Out.I ep); ("mean_ones_pct", Out.F (100. *. mean));
          ("set_one", Out.I set_one);
          ("set_zero", Out.I set_zero);
          ("coin", Out.I coin);
          ("decided", Out.I decided);
        ])
    rows;
  Printf.printf
    "\n(thresholds: >18/30 sets 1, <15/30 sets 0, the window flips the \
     epoch's one coin;\n >27/30 or <3/30 arms the decided flag — compare \
     with Figure 3's bands)\n"

(* ------------------------------------------------------------------ *)
(* G4: Theorem 4 property report.                                      *)
(* ------------------------------------------------------------------ *)

let g4 ~quick () =
  section "G4: Theorem 4 — random-graph properties R(n, Delta/(n-1))";
  let ns = if quick then [ 128; 512 ] else [ 128; 512; 2048 ] in
  row "%6s %7s %9s %9s %9s %11s %7s\n" "n" "Delta" "deg-ok" "sparse"
    "expand" "core(n/15)" "ecc";
  sweep
    ~codec:
      Cache.Codec.(
        triple (pair int bool) (pair bool bool) (pair int string))
    ~point:(fun n -> Printf.sprintf "n=%d" n)
    ~params:ns ~seeds:[ 21 ]
    (fun n seed ->
      let delta = Expander.default_delta n in
      let g = Expander.create_good ~n ~delta ~seed:(Int64.of_int seed) () in
      let deg = Expander.degree_bounds_ok g ~lo:0.5 ~hi:1.6 in
      let sparse =
        Expander.edge_sparsity_ok g ~samples:40 ~max_size:(n / 10)
          ~alpha:(float_of_int delta /. 4.)
          ~seed:31L
      in
      let expand =
        Expander.expansion_ok g ~samples:40 ~set_size:(n / 10) ~seed:41L
      in
      let removed = Array.init n (fun v -> v < n / 15) in
      let core = Expander.prune g ~removed ~min_deg:(delta / 3) in
      let size = Expander.mask_size core in
      let v = ref 0 in
      while not core.(!v) do
        incr v
      done;
      let ecc =
        match Expander.eccentricity_within g ~mask:core ~v:!v with
        | Some e -> string_of_int e
        | None -> "disc"
      in
      ((delta, deg), (sparse, expand), (size, ecc)))
  |> List.iter (fun (n, rs) ->
         List.iter
           (fun ((delta, deg), (sparse, expand), (size, ecc)) ->
             row "%6d %7d %9b %9b %9b %6d/%-4d %7s\n" n delta deg sparse
               expand size
               (n - (4 * (n / 15) / 3))
               ecc;
             Out.emit
               [
                 ("n", Out.I n); ("delta", Out.I delta);
                 ("degree_ok", Out.B deg); ("sparse_ok", Out.B sparse);
                 ("expansion_ok", Out.B expand); ("core_size", Out.I size);
                 ("core_bound", Out.I (n - (4 * (n / 15) / 3)));
                 ("eccentricity", Out.S ecc);
               ])
           rs);
  Printf.printf
    "(core column: Lemma 4 survivor count vs its n - 4/3 |T| bound; ecc: \
     the 'shallow'\n property — the pruned core keeps O(log n) diameter)\n"

(* ------------------------------------------------------------------ *)
(* L12: the coin-flipping game (Lemma 12).                             *)
(* ------------------------------------------------------------------ *)

let l12 ~quick () =
  section "L12: Lemma 12 — hiding budget of the one-round coin game";
  let ks = if quick then [ 16; 64; 256; 1024 ] else [ 16; 64; 256; 1024; 4096 ] in
  let trials = if quick then 2000 else 5000 in
  row "%6s %9s %12s %12s %14s\n" "k" "alpha" "empirical" "8sqrt(k ln)"
    "empir/sqrt(k)";
  let grid =
    List.concat_map
      (fun k -> List.map (fun alpha -> (k, alpha)) [ 0.25; 0.05; 0.01 ])
      ks
  in
  sweep ~codec:Cache.Codec.int
    (* trials in the point: quick and full campaigns share grid cells *)
    ~point:(fun (k, alpha) ->
      Printf.sprintf "k=%d/alpha=%g/trials=%d" k alpha trials)
    ~params:grid ~seeds:[ 55 ]
    (fun (k, alpha) seed ->
      let rand = Sim.Rand.create ~seed:(Int64.of_int seed) () in
      Lowerbound.Coin_game.required_hides rand ~k ~alpha ~trials)
  |> List.iter (fun ((k, alpha), hs) ->
         List.iter
           (fun h ->
             let budget = Lowerbound.Coin_game.talagrand_budget ~k ~alpha in
             row "%6d %9.3f %12d %12.1f %14.2f\n" k alpha h budget
               (float_of_int h /. sqrt (float_of_int k));
             Out.emit
               [
                 ("k", Out.I k); ("alpha", Out.F alpha); ("hides", Out.I h);
                 ("talagrand_budget", Out.F budget);
                 ("hides_per_sqrt_k",
                  Out.F (float_of_int h /. sqrt (float_of_int k)));
               ])
           hs);
  Printf.printf
    "(empirical hides needed to bias with prob 1-alpha scale as sqrt(k \
     log(1/alpha)),\n inside the paper's 8 sqrt(k log(1/alpha)) budget — \
     the rightmost column is flat in k)\n"

let all ~quick () =
  f1 ~quick ();
  f2 ~quick ();
  f3 ~quick ();
  g4 ~quick ();
  l12 ~quick ()

(* ------------------------------------------------------------------ *)
(* VAL: Lemma 13 / Appendix C valency classification, exactly.         *)
(* ------------------------------------------------------------------ *)

(* cache codec for the valency analysis record *)
let analysis_codec =
  Cache.Codec.(
    conv
      (fun (a : Lowerbound.Valency.analysis) ->
        ((a.force1, a.force0), (a.stall, a.disagree)))
      (fun ((force1, force0), (stall, disagree)) ->
        { Lowerbound.Valency.force1; force0; stall; disagree })
      (pair (pair float float) (pair float float)))

let valency ~quick:_ () =
  section "VAL: Lemma 13 — exact valency of every initial state (toy game)";
  Printf.printf
    "One-coin biased-majority game, n=3, t=1, horizon 6: optimal adversary \
     probabilities\ncomputed exhaustively over all adaptive crash \
     strategies and coins.\n\n";
  let game = { Lowerbound.Valency.n = 3; t = 1; horizon = 6 } in
  (* one task per (game, inputs); the analysis is exhaustive and draws no
     coins, so seed 0 only fills the key *)
  let analyze params =
    sweep ~codec:analysis_codec
      ~point:(fun ((g : Lowerbound.Valency.game), inputs) ->
        Printf.sprintf "n=%d/t=%d/horizon=%d/inputs=%s" g.n g.t g.horizon
          (String.concat "" (Array.to_list (Array.map string_of_int inputs))))
      ~params ~seeds:[ 0 ]
      (fun (g, inputs) _ -> Lowerbound.Valency.analyze g ~inputs)
  in
  row "%10s %8s %8s %8s %10s %12s\n" "inputs" "force1" "force0" "stall"
    "disagree" "valence";
  analyze
    (List.init 8 (fun mask ->
         (game, Array.init 3 (fun p -> (mask lsr p) land 1))))
  |> List.iter (fun ((_, inputs), rs) ->
         List.iter
           (fun a ->
             let v =
               match Lowerbound.Valency.classify ~threshold:0.4 a with
               | Lowerbound.Valency.Zero_valent -> "0-valent"
               | One_valent -> "1-valent"
               | Null_valent -> "null"
               | Bivalent -> "bivalent"
             in
             row "%9d%d%d %8.3f %8.3f %8.3f %10.3f %12s\n" inputs.(0)
               inputs.(1) inputs.(2) a.Lowerbound.Valency.force1 a.force0
               a.stall a.disagree v;
             Out.emit
               [
                 ("inputs",
                  Out.S
                    (Printf.sprintf "%d%d%d" inputs.(0) inputs.(1)
                       inputs.(2)));
                 ("force1", Out.F a.Lowerbound.Valency.force1);
                 ("force0", Out.F a.force0); ("stall", Out.F a.stall);
                 ("disagree", Out.F a.disagree); ("valence", Out.S v);
               ])
           rs);
  Printf.printf
    "\n(unanimous inputs are uni-valent — validity, proved exhaustively; \
     mixed inputs are\nbivalent — the Lemma 13 starting point; disagree = 0 \
     everywhere — exhaustive safety)\n";
  Printf.printf "\nstall probability vs crash budget (inputs 101):\n";
  row "%6s %10s\n" "t" "stall";
  analyze
    (List.map
       (fun t -> ({ game with Lowerbound.Valency.t }, [| 1; 0; 1 |]))
       [ 0; 1; 2 ])
  |> List.iter (fun (((g : Lowerbound.Valency.game), _), rs) ->
         List.iter
           (fun (a : Lowerbound.Valency.analysis) ->
             row "%6d %10.3f\n" g.t a.stall;
             Out.emit ~kind:"stall"
               [ ("t", Out.I g.t); ("stall", Out.F a.stall) ])
           rs)
