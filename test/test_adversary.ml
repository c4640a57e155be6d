(* Contract tests for the adversary strategies: budgets respected, plans
   legal (the engine would raise otherwise), and each strategy does what
   its name says. *)

let run_bjbo ?(n = 64) ?(t = 8) ?(seed = 1) adversary =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:2000 () in
  let proto = Consensus.Bjbo.protocol_buffered cfg in
  let inputs = Array.init n (fun i -> i mod 2) in
  Sim.Engine.run proto cfg ~adversary ~inputs

let test_vote_splitter_spends_budget () =
  let o = run_bjbo (Adversary.vote_splitter ()) in
  Alcotest.(check int) "full budget spent" 8 o.Sim.Engine.faults_used;
  Alcotest.(check bool) "messages omitted" true (o.messages_omitted > 0);
  Alcotest.(check bool) "still decides" true
    (Sim.Engine.all_nonfaulty_decided o)

let test_vote_splitter_slack () =
  (* with slack it kills less *)
  let o0 = run_bjbo (Adversary.vote_splitter ~slack:0 ()) in
  let o5 = run_bjbo (Adversary.vote_splitter ~slack:1000 ()) in
  Alcotest.(check bool) "slack reduces kills" true
    (o5.Sim.Engine.faults_used <= o0.Sim.Engine.faults_used)

let test_crash_schedule_clamped () =
  (* asks for 3 victims with budget 1: must clamp, not raise *)
  let adversary = Adversary.crash_schedule [ (1, [ 0; 1; 2 ]) ] in
  let o = run_bjbo ~t:1 adversary in
  Alcotest.(check int) "clamped to budget" 1 o.Sim.Engine.faults_used

let test_crash_schedule_timing () =
  let adversary = Adversary.crash_schedule [ (2, [ 5 ]); (4, [ 6 ]) ] in
  let o = run_bjbo ~t:4 adversary in
  Alcotest.(check bool) "both victims corrupted" true
    (o.Sim.Engine.faulty.(5) && o.faulty.(6));
  Alcotest.(check int) "only scheduled victims" 2 o.faults_used

let test_random_omission_budget () =
  let o = run_bjbo (Adversary.random_omission ~p_omit:0.9) in
  Alcotest.(check int) "corrupts the full budget at once" 8
    o.Sim.Engine.faults_used

let test_random_omission_zero_p () =
  let o = run_bjbo (Adversary.random_omission ~p_omit:0.) in
  Alcotest.(check int) "p=0 omits nothing" 0 o.Sim.Engine.messages_omitted

let test_staggered_crash_rate () =
  let o = run_bjbo ~t:6 (Adversary.staggered_crash ~per_round:2) in
  Alcotest.(check int) "budget fully spent" 6 o.Sim.Engine.faults_used

let test_group_killer_target () =
  (* against Algorithm 1 at a size where t covers half a group *)
  let n = 100 in
  (* group size 10, majority 6; allow t = 6 *)
  let t = 3 in
  let cfg = Sim.Config.make ~n ~t_max:t ~seed:1 ~max_rounds:4000 () in
  let proto = Consensus.Optimal_omissions.protocol_buffered cfg in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = Sim.Engine.run proto cfg ~adversary:(Adversary.group_killer ()) ~inputs in
  (* victims are the first pids (group 0 is contiguous) *)
  Alcotest.(check int) "corrupts within budget" t o.Sim.Engine.faults_used;
  for pid = 0 to t - 1 do
    Alcotest.(check bool) "victims in group 0" true o.faulty.(pid)
  done;
  Alcotest.(check bool) "consensus survives" true
    (Sim.Engine.agreed_decision o <> None)

let test_eclipse_targets_victim_links () =
  let n = 64 in
  let victim = 9 in
  let o = run_bjbo ~n ~t:8 (Adversary.eclipse ~victim) in
  (* the victim itself must never be corrupted by eclipse *)
  Alcotest.(check bool) "victim left non-faulty" false
    o.Sim.Engine.faulty.(victim);
  Alcotest.(check bool) "neighbors corrupted" true (o.faults_used > 0)

let test_standard_suite_runs () =
  let suite = List.map Adversary.resolve (Adversary.standard_suite ~n:64) in
  Alcotest.(check bool) "several strategies" true (List.length suite >= 6);
  List.iter
    (fun adversary ->
      let o = run_bjbo adversary in
      Alcotest.(check bool)
        ("legal and consensus-preserving: " ^ adversary.Sim.Adversary_intf.name)
        true
        (Sim.Engine.agreed_decision o <> None))
    suite

(* --- Bytes-snapshot refactor equality (random_omission / chaotic) ---

   The fault-set probe inside the randomized omission predicates moved
   from a Hashtbl to a per-pid Bytes flag. The refactor must be invisible
   bit-for-bit: the && short-circuit means the predicate draws one random
   float exactly when an endpoint is faulty, so any change to the probe's
   answer (or its evaluation order) shifts the whole downstream random
   stream. Re-create the OLD Hashtbl-probing implementations here and
   compare full traced runs. *)

let old_random_omission ~p_omit =
  {
    Sim.Adversary_intf.name = Printf.sprintf "random-omission(p=%.2f)" p_omit;
    create =
      (fun cfg rand ->
        let faulty_set = Hashtbl.create 16 in
        let chosen = ref false in
        fun view ->
          let new_faults =
            if !chosen then []
            else begin
              chosen := true;
              let perm = Array.init cfg.Sim.Config.n (fun i -> i) in
              Sim.Rand.shuffle rand perm;
              let victims =
                Array.to_list (Array.sub perm 0 cfg.Sim.Config.t_max)
              in
              List.iter (fun pid -> Hashtbl.replace faulty_set pid ()) victims;
              victims
            end
          in
          ignore view;
          Sim.View.pointwise ~new_faults
            ~omit:(fun src dst ->
              (Hashtbl.mem faulty_set src || Hashtbl.mem faulty_set dst)
              && Sim.Rand.float rand < p_omit));
  }

let old_chaotic ?(corrupt_rate = 0.3) ?(omit_rate = 0.5) () =
  {
    Sim.Adversary_intf.name = "chaotic";
    create =
      (fun cfg rand ->
        let faulty_set = Hashtbl.create 16 in
        fun view ->
          let new_faults =
            if
              view.Sim.View.faults_used < cfg.Sim.Config.t_max
              && Sim.Rand.float rand < corrupt_rate
            then begin
              let live = ref [] in
              for pid = cfg.Sim.Config.n - 1 downto 0 do
                if not view.faulty.(pid) then live := pid :: !live
              done;
              match !live with
              | [] -> []
              | l ->
                  let arr = Array.of_list l in
                  let victim =
                    arr.(Sim.Rand.int_below rand (Array.length arr))
                  in
                  Hashtbl.replace faulty_set victim ();
                  [ victim ]
            end
            else []
          in
          Sim.View.pointwise ~new_faults
            ~omit:(fun src dst ->
              (Hashtbl.mem faulty_set src || Hashtbl.mem faulty_set dst)
              && Sim.Rand.float rand < omit_rate));
  }

let traced_run ~n ~t ~seed adversary =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:2000 () in
  let proto = Consensus.Bjbo.protocol_buffered cfg in
  let inputs = Array.init n (fun i -> i mod 2) in
  let sink, events = Trace.Sink.memory () in
  let o = Sim.Engine.run ~trace:sink proto cfg ~adversary ~inputs in
  (o, List.map Trace.Event.to_json (events ()))

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xadf |]) t

(* [random_omission] is now the term [strike(rnd<n>,p<100 p>)]; the old
   Hashtbl-probe implementation stays the oracle for it, for the name
   [random] (p = 0.7) and for the spelled term. *)
let qcheck_random_omission_snapshot =
  QCheck.Test.make ~name:"random_omission: Bytes probe = old Hashtbl probe"
    ~count:30
    QCheck.(
      quad (int_range 1 1000) (int_range 4 64) (int_range 0 100)
        (int_range 0 1000))
    (fun (seed, n, p100, t_draw) ->
      let t = t_draw mod ((n / 3) + 1) in
      let p_omit = float_of_int p100 /. 100. in
      let old = traced_run ~n ~t ~seed (old_random_omission ~p_omit) in
      let term = Printf.sprintf "strike(rnd%d,p%d)" n p100 in
      traced_run ~n ~t ~seed (Adversary.random_omission ~p_omit) = old
      && traced_run ~n ~t ~seed (Adversary.resolve term) = old
      && traced_run ~n ~t ~seed (Adversary.resolve "random")
         = traced_run ~n ~t ~seed (old_random_omission ~p_omit:0.7))

let test_random_omission_whole_percent () =
  Alcotest.check_raises "p_omit = 0.375 is not a whole percent"
    (Invalid_argument
       "random_omission: p_omit = 0.375 is not a whole percent in [0, 1]")
    (fun () -> ignore (Adversary.random_omission ~p_omit:0.375))

(* --- several Flip strikes: the compiled walk against a hand-written one ---

   A round with more than one strike holding victims asks the strikes in
   reverse preorder until one omits, so a message at the victims of two
   [Flip] strikes may draw two coins. [flip_strikes] plays that by hand
   over fixed pid sets ([Some pct] a Flip strike, [None] an Out strike),
   all corrupted at round 1 within a budget that covers them. *)

let flip_strikes strikes =
  {
    Sim.Adversary_intf.name = "flip-strikes";
    create =
      (fun _cfg rand ->
        let first = ref true in
        let hit pids src dst = List.mem src pids || List.mem dst pids in
        let asked = List.rev strikes in
        fun _view ->
          let new_faults =
            if not !first then []
            else begin
              first := false;
              List.fold_left
                (fun acc (pids, _) ->
                  acc @ List.filter (fun p -> not (List.mem p acc)) pids)
                [] strikes
            end
          in
          Sim.View.pointwise ~new_faults ~omit:(fun src dst ->
              List.exists
                (fun (pids, drop) ->
                  match drop with
                  | None -> List.mem src pids
                  | Some pct ->
                      hit pids src dst
                      && Sim.Rand.chance rand (float_of_int pct /. 100.))
                asked));
  }

let qcheck_multi_flip =
  let cases =
    [
      ("both(strike(p0.1.2,p50),strike(p1.2.3,p30))",
        [ ([ 0; 1; 2 ], Some 50); ([ 1; 2; 3 ], Some 30) ]);
      ("both(strike(p0.1.2,p40),strike(p1.2.3,p40))",
        [ ([ 0; 1; 2 ], Some 40); ([ 1; 2; 3 ], Some 40) ]);
      ("both(strike(p4.5,p70),both(strike(p5.6,p20),strike(p4.6,p90)))",
        [ ([ 4; 5 ], Some 70); ([ 5; 6 ], Some 20); ([ 4; 6 ], Some 90) ]);
      ("both(strike(p0.1,out),strike(p1.2,p60))",
        [ ([ 0; 1 ], None); ([ 1; 2 ], Some 60) ]);
    ]
  in
  QCheck.Test.make ~name:"several Flip strikes = reverse-preorder oracle"
    ~count:12 (QCheck.int_range 1 1000) (fun seed ->
      List.for_all
        (fun (term, strikes) ->
          traced_run ~n:16 ~t:5 ~seed (Adversary.resolve term)
          = traced_run ~n:16 ~t:5 ~seed (flip_strikes strikes))
        cases)

let qcheck_chaotic_snapshot =
  QCheck.Test.make ~name:"chaotic: Bytes probe = old Hashtbl probe" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      traced_run ~n:24 ~t:5 ~seed (Adversary.chaotic ())
      = traced_run ~n:24 ~t:5 ~seed (old_chaotic ()))

(* --- mask route vs general route on random fault sets ---

   A hand-built crash-style adversary over an arbitrary fault set, stated
   once as per-sender masks (Omit_all per crashed sender). Run as is it
   takes the mask route; through {!Adversary.pointwise} the general route
   decodes the same masks message by message. Both traced runs must be
   byte-identical. *)

let masked_crash ~victims =
  {
    Sim.Adversary_intf.name = "masked-crash";
    create =
      (fun cfg _rand ->
        let crashed_b = Bytes.make cfg.Sim.Config.n '\000' in
        let done_ = ref false in
        fun _view ->
          let new_faults =
            if !done_ then []
            else begin
              done_ := true;
              List.iter (fun pid -> Bytes.set crashed_b pid '\001') victims;
              victims
            end
          in
          {
            Sim.View.new_faults;
            omit =
              Masks
                (fun src ->
                  if Bytes.get crashed_b src <> '\000' then Sim.View.Omit_all
                  else Sim.View.Deliver_all);
          });
  }

let qcheck_mask_route_equals_general =
  QCheck.Test.make ~name:"mask route = general route (random faults)"
    ~count:30
    QCheck.(pair (int_range 1 1000) (list_of_size (Gen.return 5) (int_range 0 23)))
    (fun (seed, pids) ->
      let victims = List.sort_uniq compare pids in
      let t = max 1 (List.length victims) in
      traced_run ~n:24 ~t ~seed (masked_crash ~victims)
      = traced_run ~n:24 ~t ~seed
          (Adversary.pointwise (masked_crash ~victims)))

let suite =
  [
    Alcotest.test_case "vote splitter spends budget" `Quick
      test_vote_splitter_spends_budget;
    Alcotest.test_case "vote splitter slack" `Quick test_vote_splitter_slack;
    Alcotest.test_case "crash schedule clamped" `Quick
      test_crash_schedule_clamped;
    Alcotest.test_case "crash schedule timing" `Quick
      test_crash_schedule_timing;
    Alcotest.test_case "random omission budget" `Quick
      test_random_omission_budget;
    Alcotest.test_case "random omission p=0" `Quick test_random_omission_zero_p;
    Alcotest.test_case "random omission takes whole percents" `Quick
      test_random_omission_whole_percent;
    Alcotest.test_case "staggered crash rate" `Quick test_staggered_crash_rate;
    Alcotest.test_case "group killer target" `Quick test_group_killer_target;
    Alcotest.test_case "eclipse spares the victim" `Quick
      test_eclipse_targets_victim_links;
    Alcotest.test_case "standard suite" `Quick test_standard_suite_runs;
    qcheck qcheck_random_omission_snapshot;
    qcheck qcheck_multi_flip;
    qcheck qcheck_chaotic_snapshot;
    qcheck qcheck_mask_route_equals_general;
  ]
