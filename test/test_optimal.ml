(* Integration tests for OptimalOmissionsConsensus (Algorithm 1):
   agreement, validity, termination, the operative-set bound (Lemma 7),
   randomness accounting, and determinism — across the adversary suite. *)

let run ?(n = 64) ?t ?(seed = 1) ?(adversary = Sim.Adversary_intf.none)
    ?(params = Consensus.Params.default) ?trace inputs =
  let t = match t with Some t -> t | None -> max 1 (n / 31) in
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:4000 () in
  let proto = Consensus.Optimal_omissions.protocol_buffered ~params cfg in
  Sim.Engine.run proto cfg ?trace ~adversary ~inputs

let check_consensus ~what ~inputs o =
  Alcotest.(check bool)
    (what ^ ": all non-faulty decided")
    true
    (Sim.Engine.all_nonfaulty_decided o);
  match Sim.Engine.agreed_decision o with
  | None -> Alcotest.fail (what ^ ": agreement violated")
  | Some v ->
      (* weak validity: the decision is some process's input *)
      Alcotest.(check bool)
        (what ^ ": decision is an input")
        true
        (Array.exists (fun b -> b = v) inputs);
      v

let mixed n = Array.init n (fun i -> i mod 2)
let thirds n = Array.init n (fun i -> if i mod 3 = 0 then 1 else 0)

let test_no_adversary_mixed () =
  let inputs = mixed 64 in
  let o = run inputs in
  ignore (check_consensus ~what:"mixed" ~inputs o)

let test_validity_unanimous () =
  List.iter
    (fun b ->
      let inputs = Array.make 64 b in
      let o = run inputs in
      let v = check_consensus ~what:"unanimous" ~inputs o in
      Alcotest.(check int) "validity" b v;
      Alcotest.(check int) "unanimity uses no randomness" 0 o.rand_calls)
    [ 0; 1 ]

let test_validity_under_all_adversaries () =
  List.iter
    (fun adversary ->
      List.iter
        (fun b ->
          let inputs = Array.make 50 b in
          let o = run ~n:50 ~adversary inputs in
          let v =
            check_consensus
              ~what:("validity vs " ^ adversary.Sim.Adversary_intf.name)
              ~inputs o
          in
          Alcotest.(check int) "validity" b v)
        [ 0; 1 ])
    (List.map Adversary.resolve (Adversary.standard_suite ~n:50))

let test_agreement_under_all_adversaries () =
  List.iter
    (fun adversary ->
      List.iter
        (fun seed ->
          let inputs = mixed 64 in
          let o = run ~seed ~adversary inputs in
          ignore
            (check_consensus
               ~what:
                 (Printf.sprintf "agreement vs %s (seed %d)"
                    adversary.Sim.Adversary_intf.name seed)
               ~inputs o))
        [ 1; 2; 3 ])
    (List.map Adversary.resolve (Adversary.standard_suite ~n:64))

let test_eclipse_adversary () =
  let inputs = thirds 64 in
  let o = run ~adversary:(Adversary.eclipse ~victim:0) inputs in
  ignore (check_consensus ~what:"eclipse" ~inputs o)

let test_larger_t () =
  (* t at the paper's bound n/30 for a bigger system *)
  let n = 128 in
  let t = max 1 ((n / 30) - 1) in
  List.iter
    (fun adversary ->
      let inputs = mixed n in
      let o = run ~n ~t ~adversary inputs in
      ignore
        (check_consensus
           ~what:("t=n/30 vs " ^ adversary.Sim.Adversary_intf.name)
           ~inputs o))
    [ Adversary.vote_splitter (); Adversary.random_omission ~p_omit:1.0 ]

let test_operative_lower_bound () =
  (* Lemma 7: at least n - 3t processes stay operative, whatever the
     adversary does *)
  let n = 90 in
  let t = max 1 (n / 31) in
  List.iter
    (fun adversary ->
      let min_ops = ref max_int in
      let probe =
        {
          Sim.Adversary_intf.name = "probe";
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
      in
      let inputs = mixed n in
      let o = run ~n ~t ~adversary:probe inputs in
      ignore (check_consensus ~what:"lemma7" ~inputs o);
      Alcotest.(check bool)
        (Printf.sprintf "operative >= n-3t under %s (got %d)"
           adversary.Sim.Adversary_intf.name !min_ops)
        true
        (!min_ops >= n - (3 * t)))
    (List.map Adversary.resolve (Adversary.standard_suite ~n:90))

let test_randomness_budget () =
  (* at most one coin per process per epoch: rand_calls <= n * epochs and
     every call draws exactly one bit *)
  let n = 64 in
  let params = Consensus.Params.default in
  let epochs =
    Consensus.Params.epoch_count params ~n ~t_max:(max 1 (n / 31))
  in
  let o = run ~n (mixed n) in
  Alcotest.(check bool) "rand calls bounded" true (o.rand_calls <= n * epochs);
  Alcotest.(check int) "one bit per call" o.rand_calls o.rand_bits

let test_determinism () =
  let inputs = mixed 50 in
  let o1 = run ~n:50 ~seed:7 ~adversary:(Adversary.vote_splitter ()) inputs in
  let o2 = run ~n:50 ~seed:7 ~adversary:(Adversary.vote_splitter ()) inputs in
  Alcotest.(check (array (option int))) "same decisions" o1.decisions
    o2.decisions;
  Alcotest.(check int) "same bits" o1.bits_sent o2.bits_sent;
  Alcotest.(check int) "same randomness" o1.rand_calls o2.rand_calls

let test_seed_changes_run () =
  let inputs = mixed 50 in
  let o1 = run ~n:50 ~seed:1 inputs and o2 = run ~n:50 ~seed:2 inputs in
  (* outcomes may coincide, but the runs should not be bit-identical *)
  Alcotest.(check bool) "different seeds differ somewhere" true
    (o1.bits_sent <> o2.bits_sent
    || o1.rand_calls <> o2.rand_calls
    || o1.rounds_total <> o2.rounds_total
    || o1.decisions <> o2.decisions
    || true);
  (* the above can't distinguish reliably; check the graph differs via
     message counts across a batch of seeds instead *)
  let distinct = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      let o = run ~n:50 ~seed inputs in
      Hashtbl.replace distinct (o.bits_sent, o.rand_calls, o.rounds_total) ())
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "some variation across seeds" true
    (Hashtbl.length distinct > 1)

let test_small_systems () =
  (* degenerate sizes must still decide *)
  List.iter
    (fun n ->
      let inputs = mixed n in
      let o = run ~n ~t:(max 0 (n / 31)) inputs in
      ignore (check_consensus ~what:(Printf.sprintf "n=%d" n) ~inputs o))
    [ 4; 5; 9; 16; 33 ]

let test_decided_round_within_schedule () =
  let n = 64 in
  let cfg = Sim.Config.make ~n ~t_max:2 ~seed:1 ~max_rounds:4000 () in
  let limit = Consensus.Optimal_omissions.rounds_needed cfg in
  let o = run ~n (mixed n) in
  match o.decided_round with
  | None -> Alcotest.fail "no termination"
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "decided at %d <= schedule %d" r limit)
        true (r <= limit)

let test_fixed_epoch_params () =
  (* a caller can force a short schedule; the fallback then guarantees
     probability-1 termination *)
  let params =
    { Consensus.Params.default with Consensus.Params.epochs = Consensus.Params.Fixed 1 }
  in
  let inputs = mixed 36 in
  let o = run ~n:36 ~params inputs in
  ignore (check_consensus ~what:"fixed-1-epoch" ~inputs o)

(* Regression for the undecided-fallback residue (Algorithm 1 lines
   18-19): corrupt one fallback participant and omit every message TO it
   for the whole phase-king window, so its fallback run ends having heard
   nothing. It must not fabricate a decision from its own candidate — the
   old code finalized the phase-king state into an unconditional decision
   (and then kept re-finalizing it), letting the eclipsed process decide a
   value that can differ from the agreed one. Post-fix it leaves the tail
   undecided and, in the residue round after the finalize round, adopts
   the first line-18 [Decided] broadcast in its inbox — never disagrees. *)
let eclipse_fallback ~victim ~from_round ~to_round =
  {
    Sim.Adversary_intf.name = "eclipse-fallback";
    create =
      (fun _cfg _rand view ->
        let r = view.Sim.View.round in
        if r < from_round || r > to_round then Sim.View.no_op
        else
          Sim.View.pointwise
            ~new_faults:(if r = from_round then [ victim ] else [])
            ~omit:(fun _src dst -> dst = victim));
  }

(* The engine stops once every non-faulty process has decided, so the
   residue round runs only while some non-faulty process is still
   undecided after the finalize round. [eclipse_fallback] plus pids 0-2
   silenced for the whole run arranges that: their non-faulty group mates
   3-5 lose the aggregation quorum, turn inoperative and idle until a
   line-18 [Decided] reaches them, in the residue round itself. *)
let idle_group_eclipse ~victim ~from_round ~to_round =
  let silenced p = p <= 2 in
  {
    Sim.Adversary_intf.name = "idle-group-eclipse";
    create =
      (fun _cfg _rand view ->
        let r = view.Sim.View.round in
        let eclipsed = r >= from_round && r <= to_round in
        Sim.View.pointwise
          ~new_faults:
            ((if r = 1 then [ 0; 1; 2 ] else [])
            @ if r = from_round then [ victim ] else [])
          ~omit:(fun src dst ->
            silenced src || silenced dst || (eclipsed && dst = victim)));
  }

let test_undecided_fallback_regression () =
  let n = 36 in
  let t = 4 in
  (* one epoch keeps the whp-decision from firing, forcing the fallback *)
  let params =
    { Consensus.Params.default with
      Consensus.Params.epochs = Consensus.Params.Fixed 1
    }
  in
  let v_rounds = Consensus.Core.schedule_length ~params ~t_max:t n in
  let p_rounds = Consensus.Phase_king.rounds ~t_max:t in
  (* the tail's local round 1 is V+1, its finalize round V+P+1 *)
  let residue_round = v_rounds + p_rounds + 2 in
  let victim = 20 in
  let fallback_runs = ref 0 in
  List.iter
    (fun seed ->
      (* the fallback exchanges messages sent in rounds V+1 .. V+P *)
      let adversary =
        idle_group_eclipse ~victim ~from_round:(v_rounds + 1)
          ~to_round:(v_rounds + p_rounds)
      in
      let participant = ref false and victim_decided_at = ref 0 in
      let probe =
        Trace.Sink.make ~close:ignore ~emit:(function
          | Trace.Event.Send { round; src; _ }
            when round = v_rounds + 1 && src = victim ->
              participant := true
          | Trace.Event.Decide { round; pid; _ } when pid = victim ->
              victim_decided_at := round
          | _ -> ())
      in
      let inputs = mixed n in
      let o = run ~n ~t ~seed ~adversary ~params ~trace:probe inputs in
      Alcotest.(check bool)
        (Printf.sprintf "non-faulty decided (seed %d)" seed)
        true
        (Sim.Engine.all_nonfaulty_decided o);
      let fallback =
        match o.decided_round with Some r -> r > v_rounds + 1 | None -> false
      in
      if fallback then incr fallback_runs;
      match Sim.Engine.agreed_decision o with
      | None ->
          Alcotest.failf "agreement violated among non-faulty (seed %d)" seed
      | Some agreed ->
          Array.iteri
            (fun pid d ->
              match d with
              | Some dv ->
                  Alcotest.(check int)
                    (Printf.sprintf
                       "pid %d must not fabricate a decision (seed %d)" pid
                       seed)
                    agreed dv
              | None -> ())
            o.decisions;
          if fallback then begin
            Alcotest.(check bool)
              (Printf.sprintf "victim is a tail participant (seed %d)" seed)
              true !participant;
            Alcotest.(check int)
              (Printf.sprintf "victim resolves in the residue round (seed %d)"
                 seed)
              residue_round !victim_decided_at;
            Alcotest.(check (option int))
              (Printf.sprintf "victim adopts the line-18 decision (seed %d)"
                 seed)
              (Some agreed) o.decisions.(victim)
          end)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "the fallback window was actually exercised" true
    (!fallback_runs > 0)

let test_vote_log () =
  (* the Figure-3 trace hook records one event per operative process per
     epoch *)
  let n = 36 in
  let log = ref [] in
  let cfg = Sim.Config.make ~n ~t_max:1 ~seed:1 ~max_rounds:4000 () in
  let proto = Consensus.Optimal_omissions.protocol_buffered ~vote_log:log cfg in
  let o =
    Sim.Engine.run proto cfg ~adversary:Sim.Adversary_intf.none
      ~inputs:(mixed n)
  in
  ignore o;
  Alcotest.(check bool) "events recorded" true (List.length !log > 0);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "counts positive" true
        (ev.Consensus.Core.ev_ones + ev.Consensus.Core.ev_zeros > 0);
      Alcotest.(check bool) "rule named" true
        (List.exists
           (fun p -> String.length ev.ev_rule >= String.length p
                     && String.sub ev.ev_rule 0 (String.length p) = p)
           [ "one"; "zero"; "coin" ]))
    !log

let suite =
  [
    Alcotest.test_case "mixed inputs, no adversary" `Quick
      test_no_adversary_mixed;
    Alcotest.test_case "validity (unanimous, zero randomness)" `Quick
      test_validity_unanimous;
    Alcotest.test_case "validity under all adversaries" `Slow
      test_validity_under_all_adversaries;
    Alcotest.test_case "agreement under all adversaries" `Slow
      test_agreement_under_all_adversaries;
    Alcotest.test_case "eclipse adversary" `Quick test_eclipse_adversary;
    Alcotest.test_case "t close to n/30" `Slow test_larger_t;
    Alcotest.test_case "Lemma 7 operative bound" `Slow
      test_operative_lower_bound;
    Alcotest.test_case "randomness budget" `Quick test_randomness_budget;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed variation" `Quick test_seed_changes_run;
    Alcotest.test_case "small systems" `Quick test_small_systems;
    Alcotest.test_case "termination within schedule" `Quick
      test_decided_round_within_schedule;
    Alcotest.test_case "fixed 1-epoch params (fallback path)" `Quick
      test_fixed_epoch_params;
    Alcotest.test_case "undecided-fallback residue regression" `Quick
      test_undecided_fallback_regression;
    Alcotest.test_case "Figure-3 vote log" `Quick test_vote_log;
  ]

let qcheck_chaotic_adversaries =
  (* property: agreement + weak validity hold for arbitrary randomized
     legal adversaries (seeds sweep both the adversary and the protocol) *)
  QCheck.Test.make ~name:"consensus under chaotic adversaries" ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 0 2))
    (fun (seed, style) ->
      let n = 36 in
      let adversary =
        match style with
        | 0 -> Adversary.chaotic ()
        | 1 -> Adversary.chaotic ~corrupt_rate:1.0 ~omit_rate:1.0 ()
        | _ -> Adversary.chaotic ~corrupt_rate:0.1 ~omit_rate:0.9 ()
      in
      let inputs = Array.init n (fun i -> (i * 13 + seed) mod 2) in
      let o = run ~n ~seed ~adversary inputs in
      Sim.Engine.all_nonfaulty_decided o
      &&
      match Sim.Engine.agreed_decision o with
      | Some v -> Array.exists (fun b -> b = v) inputs
      | None -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest qcheck_chaotic_adversaries ]
