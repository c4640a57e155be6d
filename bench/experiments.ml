(* Table 1 experiments: one section per row of the paper's Table 1.
   EXPERIMENTS.md records the paper-vs-measured comparison for each. *)

open Bench_util

(* ------------------------------------------------------------------ *)
(* T1-thm1: Theorem 1 — O(sqrt n log^2 n) rounds, O(n^2 log^3 n) bits,
   O(n^{3/2} log^2 n) random bits for Algorithm 1 at t = Theta(n).      *)
(* ------------------------------------------------------------------ *)

let t1_thm1 ~quick () =
  section "T1-thm1: Algorithm 1 (OptimalOmissionsConsensus), Table 1 row 1";
  Printf.printf
    "t = floor(n/31) (the algorithm's Theta(n) maximum), adversary = \
     vote-splitter, 3 seeds.\n";
  (* the full list reaches past n = 961, where t/sqrt n > 1 and the epoch
     count (t/sqrt n) log n leaves its log n floor: n = 1024, 2048, 4096
     give t/sqrt n = 1.03, 1.46, 2.06 *)
  let ns =
    if quick then [ 64; 100; 144; 196 ]
    else [ 64; 100; 144; 196; 256; 400; 1024; 2048; 4096 ]
  in
  let seeds = Bench_util.seed_list [ 1; 2; 3 ] in
  row "%6s %5s %10s %14s %12s %10s\n" "n" "t" "rounds" "comm bits" "rand bits"
    "msgs";
  let per_n =
    sweep ~codec:measure_codec
      ~point:(fun n -> Printf.sprintf "n=%d" n)
      ~params:ns ~seeds
      (fun n seed ->
        measure
          (spec ~protocol:"optimal" ~n ~t:(max 1 (n / 31)) ~seed "splitter"))
  in
  (* points whose every run was quarantined or timed out are skipped; the
     fits below use only the surviving (n, avg) pairs *)
  let kept = ref [] in
  List.iter
    (fun (n, ms) ->
      let t = max 1 (n / 31) in
      match avg_runs ~label:(Printf.sprintf "n=%d" n) ms with
      | None -> ()
      | Some (r, b, rb, m) ->
          kept := (n, r, b, rb) :: !kept;
          row "%6d %5d %10.0f %14.0f %12.0f %10.0f\n" n t r b rb m;
          Out.emit
            [
              ("n", Out.I n); ("t", Out.I t); ("rounds", Out.F r);
              ("comm_bits", Out.F b); ("rand_bits", Out.F rb); ("msgs", Out.F m);
            ])
    per_n;
  let kept = List.rev !kept in
  let ns_kept = List.map (fun (n, _, _, _) -> n) kept in
  let e_bits = fit_exponent ~log_power:3 ns_kept (List.map (fun (_, _, b, _) -> b) kept) in
  let e_rounds = fit_exponent ~log_power:2 ns_kept (List.map (fun (_, r, _, _) -> r) kept) in
  let e_rand = fit_exponent ~log_power:1 ns_kept (List.map (fun (_, _, _, rb) -> rb) kept) in
  Out.emit ~kind:"fit"
    [
      ("comm_bits_exponent", Out.F e_bits);
      ("rounds_exponent", Out.F e_rounds);
      ("rand_bits_exponent", Out.F e_rand);
    ];
  Printf.printf
    "\nfitted growth exponents (polylog factors divided out first):\n";
  Printf.printf
    "  comm bits / log^3 n : n^%.2f   (paper: n^2; the n^2 decision \
     broadcast + n^{3/2} polylog epochs)\n"
    e_bits;
  Printf.printf
    "  rounds    / log^2 n : n^%.2f   (paper: n^{1/2} at t = Theta(n); at \
     n <= 961 the epoch count (t/sqrt n) log n is clamped at its log n \
     floor, so the expected measured exponent here is ~0)\n"
    e_rounds;
  Printf.printf
    "  rand bits / log n   : n^%.2f   (paper: n^{3/2}; same clamping — one \
     coin per process per epoch gives ~n log n in this regime, exponent \
     ~1)\n"
    e_rand;
  (* the regime Theorem 1's sqrt n and n^{3/2} factors live in: only the
     points with t/sqrt n > 1, fitted on their own *)
  let unclamped =
    List.filter
      (fun (n, _, _, _) ->
        float_of_int (max 1 (n / 31)) > sqrt (float_of_int n))
      kept
  in
  if List.length unclamped >= 2 then begin
    let ns_u = List.map (fun (n, _, _, _) -> n) unclamped in
    let e_rounds_u =
      fit_exponent ~log_power:2 ns_u
        (List.map (fun (_, r, _, _) -> r) unclamped)
    in
    let e_rand_u =
      fit_exponent ~log_power:1 ns_u
        (List.map (fun (_, _, _, rb) -> rb) unclamped)
    in
    Out.emit ~kind:"fit"
      [
        ("range", Out.S "t/sqrt(n)>1");
        ("points", Out.I (List.length unclamped));
        ("rounds_exponent", Out.F e_rounds_u);
        ("rand_bits_exponent", Out.F e_rand_u);
      ];
    Printf.printf
      "over the %d points with t/sqrt n > 1 (epoch count off its floor):\n\
      \  rounds    / log^2 n : n^%.2f   (paper: n^{1/2})\n\
      \  rand bits / log n   : n^%.2f   (paper: n^{3/2})\n"
      (List.length unclamped) e_rounds_u e_rand_u
  end;
  Printf.printf
    "shape check vs the deterministic baseline appears under T1-abraham.\n"

(* ------------------------------------------------------------------ *)
(* T1-thm3: Theorem 3 — the T x R trade-off of Algorithm 4.            *)
(* ------------------------------------------------------------------ *)

let t1_thm3 ~quick () =
  section "T1-thm3: Algorithm 4 (ParamOmissions), Table 1 row 2";
  Printf.printf
    "Sweeping the super-process count x: randomness R falls, time T rises,\n\
     with T x R tracking ~n^2 polylog (Theorem 3). staggered-crash \
     adversary.\n";
  let ns = if quick then [ 64 ] else [ 64; 144 ] in
  List.iter
    (fun n ->
      subsection (Printf.sprintf "n = %d, t = %d" n (max 1 (n / 61)));
      row "%4s %8s %11s %11s %13s %14s\n" "x" "T" "R (bits)" "msgs"
        "comm bits" "T x max(R,1)";
      let t = max 1 (n / 61) in
      let xs = List.filter (fun x -> x <= n / 4) [ 1; 2; 4; 8; 16 ] in
      let per_x =
        sweep ~codec:measure_codec
          ~point:(fun x -> Printf.sprintf "n=%d/x=%d" n x)
          ~params:xs ~seeds:(Bench_util.seed_list [ 1; 2; 3 ]) (fun x seed ->
            measure
              (spec ~x ~protocol:"param" ~n ~t ~seed
                 "again(strike(rnd1,out))"))
      in
      List.iter
        (fun (x, ms) ->
          match avg_runs ~label:(Printf.sprintf "n=%d x=%d" n x) ms with
          | None -> ()
          | Some (r, b, rb, m) ->
              row "%4d %8.0f %11.1f %11.0f %13.0f %14.0f\n" x r rb m b
                (r *. Float.max rb 1.);
              Out.emit
                [
                  ("n", Out.I n); ("t", Out.I t); ("x", Out.I x);
                  ("rounds", Out.F r); ("rand_bits", Out.F rb);
                  ("msgs", Out.F m); ("comm_bits", Out.F b);
                  ("time_x_rand", Out.F (r *. Float.max rb 1.));
                ])
        per_x)
    ns

(* ------------------------------------------------------------------ *)
(* T1-bjbo: the [10] baseline — Omega(t / sqrt(n log n)) rounds.       *)
(* ------------------------------------------------------------------ *)

let t1_bjbo ~quick () =
  section "T1-bjbo: Bar-Joseph/Ben-Or baseline, Table 1 row 3";
  Printf.printf
    "Crash-model biased majority under the vote-splitting adversary, t = \
     n/4.\nThe forced rounds track the t / sqrt(n log n) lower-bound shape.\n";
  let ns = if quick then [ 64; 144; 256 ] else [ 64; 144; 256; 400; 576 ] in
  row "%6s %5s %8s %18s %8s\n" "n" "t" "rounds" "t/sqrt(n log2 n)" "ratio";
  let per_n =
    sweep ~codec:measure_codec
      ~point:(fun n -> Printf.sprintf "n=%d" n)
      ~params:ns ~seeds:(Bench_util.seed_list [ 1; 2; 3; 4; 5 ])
      (fun n seed ->
        measure (spec ~protocol:"bjbo" ~n ~t:(n / 4) ~seed "splitter"))
  in
  List.iter
    (fun (n, ms) ->
      let t = n / 4 in
      match avg_runs ~label:(Printf.sprintf "n=%d" n) ms with
      | None -> ()
      | Some (r, _, _, _) ->
          let shape =
            float_of_int t
            /. sqrt (float_of_int n *. (log (float_of_int n) /. log 2.))
          in
          row "%6d %5d %8.1f %18.2f %8.2f\n" n t r shape (r /. shape);
          Out.emit
            [
              ("n", Out.I n); ("t", Out.I t); ("rounds", Out.F r);
              ("lower_bound_shape", Out.F shape); ("ratio", Out.F (r /. shape));
            ])
    per_n;
  Printf.printf
    "(a roughly constant ratio column = the measured rounds follow the \
     lower-bound shape)\n"

(* ------------------------------------------------------------------ *)
(* T1-abraham: the [1] bound — Omega(t^2) messages for everyone.       *)
(* ------------------------------------------------------------------ *)

let t1_abraham ~quick () =
  section "T1-abraham: Omega(t^2) message floor ([1]), Table 1 row 4";
  Printf.printf
    "Every protocol's message count sits above the eps t^2 lower bound; \
     the\ndeterministic baselines pay Theta(n^2 t) while Algorithm 1 stays \
     near-quadratic.\n";
  let n = if quick then 100 else 144 in
  let t_opt = max 1 (n / 31) in
  let t_big = n / 4 in
  row "%-24s %5s %12s %12s %10s\n" "protocol" "t" "messages" "t^2"
    "msgs/t^2";
  let entry name t msgs =
    row "%-24s %5d %12d %12d %10.0f\n" name t msgs (t * t)
      (float_of_int msgs /. float_of_int (t * t));
    Out.emit
      [
        ("protocol", Out.S name); ("t", Out.I t); ("messages", Out.I msgs);
        ("t_squared", Out.I (t * t));
        ("msgs_per_t2", Out.F (float_of_int msgs /. float_of_int (t * t)));
      ]
  in
  let n_ds = min n 100 in
  let t_ds = n_ds / 8 in
  let messages ?x ?(n = n) ~t protocol adversary seed =
    (measure (spec ?x ~protocol ~n ~t ~seed adversary)).messages
  in
  (* five independent single runs, one sweep point each; [Some n_ds]
     marks the row run at its own size *)
  let cases =
    [
      ( "optimal-omissions", t_opt, None,
        messages ~t:t_opt "optimal" "splitter" );
      ( "param-omissions(x=4)", t_opt, None,
        messages ~x:4 ~t:t_opt "param" "again(strike(rnd1,out))" );
      ( "bjbo (crash baseline)", t_big, None,
        messages ~t:t_big "bjbo" "splitter" );
      ( "flood-min (deterministic)", t_big, None,
        messages ~t:t_big "flood" "again(strike(rnd2,out))" );
      ( "dolev-strong [15]", t_ds, Some n_ds,
        messages ~n:n_ds ~t:t_ds "dolev-strong"
          (Printf.sprintf "strike(rnd%d,p80)" n_ds) );
    ]
  in
  (* a quarantined protocol loses its row; the others still print *)
  sweep ~codec:Cache.Codec.int
    ~point:(fun (name, _, _, _) -> Printf.sprintf "%s/n=%d" name n)
    ~params:cases ~seeds:[ 1 ]
    (fun (_, _, _, run) seed -> run seed)
  |> List.iter (fun ((name, t, own_n, _), ms) ->
         List.iter
           (fun m ->
             match own_n with
             | None -> entry name t m
             | Some n_ds ->
                 row
                   "%-24s %5d %12d %12d %10.0f   (n=%d: n parallel \
                    broadcasts)\n"
                   name t m (t * t)
                   (float_of_int m /. float_of_int (t * t))
                   n_ds;
                 Out.emit
                   [
                     ("protocol", Out.S "dolev-strong"); ("t", Out.I t);
                     ("messages", Out.I m); ("t_squared", Out.I (t * t));
                     ("msgs_per_t2",
                      Out.F (float_of_int m /. float_of_int (t * t)));
                     ("n", Out.I n_ds);
                   ])
           ms);
  Printf.printf
    "\nrounds comparison at the same (n, t): dolev-strong takes t+2 rounds \
     (Theta(n) at t = Theta(n))\nwhile Algorithm 1's schedule is \
     (t/sqrt(n)) polylog — the Table 1 separation.\n"

(* ------------------------------------------------------------------ *)
(* T1-thm2: the lower bound T x (R+T) = Omega(t^2 / log n).            *)
(* ------------------------------------------------------------------ *)

(* cache codec for the coin-game result record *)
let product_codec =
  Cache.Codec.(
    conv
      (fun (r : Lowerbound.Product.result) ->
        ( (r.n, r.t, r.coin_set),
          (r.rounds, r.rand_calls, r.product),
          (r.bound, r.decided) ))
      (fun ((n, t, coin_set), (rounds, rand_calls, product), (bound, decided))
         ->
        { Lowerbound.Product.n; t; coin_set; rounds; rand_calls; product;
          bound; decided })
      (triple (triple int int int) (triple int int int) (pair float bool)))

let t1_thm2 ~quick () =
  section "T1-thm2: Theorem 2 lower bound — why a lot of randomness is needed";
  Printf.printf
    "Adaptive vote-splitting adversary (the Lemma 13-15 strategy) against \
     biased-majority\nvoting allowed k coin-flippers per round. t = n/4, 5 \
     seeds.\n";
  let ns = if quick then [ 64; 128 ] else [ 64; 128; 256 ] in
  List.iter
    (fun n ->
      let t = n / 4 in
      subsection (Printf.sprintf "n = %d, t = %d" n t);
      row "%8s %8s %10s %14s %14s %7s\n" "k" "T" "R" "T x (R+T)"
        "t^2/log2 n" "ratio";
      let seeds = Bench_util.seed_list [ 1; 2; 3; 4; 5 ] in
      let per_k =
        sweep ~codec:product_codec
          ~point:(fun k -> Printf.sprintf "n=%d/k=%d" n k)
          ~params:[ 1; 4; 16; n ] ~seeds
          (fun k seed ->
            Lowerbound.Product.run ~seed ~budget:!budget ~n ~t ~coin_set:k ())
      in
      List.iter
        (fun (k, rs) ->
          if rs = [] then
            skip_point
              ~label:(Printf.sprintf "n=%d k=%d" n k)
              ~reason:"no surviving runs (all quarantined)"
          else
          let avg g =
            List.fold_left (fun a r -> a +. float_of_int (g r)) 0. rs
            /. float_of_int (List.length rs)
          in
          let tr = avg (fun r -> r.Lowerbound.Product.rounds) in
          let rr = avg (fun r -> r.Lowerbound.Product.rand_calls) in
          let pp = avg (fun r -> r.Lowerbound.Product.product) in
          let bound =
            float_of_int (t * t) /. (log (float_of_int n) /. log 2.)
          in
          row "%8d %8.1f %10.1f %14.0f %14.0f %7.1f\n" k tr rr pp bound
            (pp /. bound);
          Out.emit
            [
              ("n", Out.I n); ("t", Out.I t); ("k", Out.I k);
              ("rounds", Out.F tr); ("rand_calls", Out.F rr);
              ("product", Out.F pp); ("bound", Out.F bound);
              ("ratio", Out.F (pp /. bound));
            ])
        per_k)
    ns;
  Printf.printf
    "\nReading: T falls as the per-round coin supply k grows (top rows), \
     while the product\nT x (R+T) always clears the Omega(t^2/log n) bound \
     — the paper's trade-off, measured.\n"

let all ~quick () =
  t1_thm1 ~quick ();
  t1_thm3 ~quick ();
  t1_bjbo ~quick ();
  t1_abraham ~quick ();
  t1_thm2 ~quick ()

(* ------------------------------------------------------------------ *)
(* B3: Appendix B.3 — the crash/omission communication separation.     *)
(* ------------------------------------------------------------------ *)

let b3 ~quick () =
  section "B3: crash-model subquadratic variant vs Algorithm 1 (Appendix B.3)";
  Printf.printf
    "Same voting core; the crash variant replaces the Theta(n^2) line-14 \
     broadcast with\nexpander dissemination — legal against crashes, \
     impossible against omissions\n(Dolev-Reischuk / Abraham et al.: \
     omissions force Omega(n^2) bits). The separation lives in\nthe \
     dissemination step; the voting epochs cost the same Otilde(n^{3/2}) \
     in both.\n";
  let ns = if quick then [ 64; 144; 256 ] else [ 64; 144; 256; 400 ] in
  row "%6s %5s %14s %14s %13s %13s %7s\n" "n" "t" "om total" "cr total"
    "om dissem" "cr dissem" "ratio";
  sweep ~codec:Cache.Codec.(pair (pair int int) (pair int int))
    ~point:(fun n -> Printf.sprintf "n=%d" n)
    ~params:ns ~seeds:[ 1 ]
    (fun n seed ->
      let t = max 1 (n / 31) in
      (* Algorithm 1: dissemination = the line-14 broadcast slot *)
      let v =
        Consensus.Core.schedule_length ~params:Consensus.Params.default
          ~t_max:t n
      in
      (* the run's total bits and the bits sent from round v on *)
      let dissem protocol =
        let trace, summary =
          Trace.Metrics.collector ~clock:(fun () -> 0.) ()
        in
        let m =
          measure ~trace
            (spec ~protocol ~n ~t ~seed "again(strike(rnd1,out))")
        in
        ( m.bits,
          List.fold_left
            (fun a (r : Trace.Metrics.per_round) ->
              if r.round >= v then a + r.bits else a)
            0 (summary ()).per_round )
      in
      let om_bits, om_dissem = dissem "optimal" in
      (* crash variant: dissemination = the gossip + help slots *)
      let cr_bits, cr_dissem = dissem "crash-sub" in
      ((om_bits, cr_bits), (om_dissem, cr_dissem)))
  |> List.iter (fun (n, rs) ->
         let t = max 1 (n / 31) in
         List.iter
           (fun ((om_bits, cr_bits), (om_dissem, cr_dissem)) ->
             row "%6d %5d %14d %14d %13d %13d %7.1f\n" n t om_bits cr_bits
               om_dissem cr_dissem
               (float_of_int om_dissem /. float_of_int (max 1 cr_dissem));
             Out.emit
               [
                 ("n", Out.I n); ("t", Out.I t);
                 ("omission_bits", Out.I om_bits);
                 ("crash_bits", Out.I cr_bits);
                 ("omission_dissem_bits", Out.I om_dissem);
                 ("crash_dissem_bits", Out.I cr_dissem);
                 ("ratio",
                  Out.F
                    (float_of_int om_dissem /. float_of_int (max 1 cr_dissem)));
               ])
           rs);
  Printf.printf
    "(the dissemination ratio grows ~n/log^2 n: the crash variant sheds the \
     quadratic term,\n which the omission model provably cannot)\n"
