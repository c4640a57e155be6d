(** Adaptive full-information adversary strategies.

    Every strategy is generic over the protocol: it reads the per-process
    observations ({!Sim.View.obs}: candidate bit, operative flag, decided
    flag, coin usage this round) and the pending messages
    ([iter_envelopes]), and returns corruptions and omissions. Structured
    strategies are {!Strategy} terms, compiled to per-sender masks; the
    vote splitter is hand-written, and so are the randomized ones, whose
    per-message draw order is observable and needs a predicate. The
    engine enforces legality (budget, omissions only at faulty
    endpoints), so strategies here express intent and stay within
    [t_max] themselves. *)

module Strategy = Strategy

let none = Sim.Adversary_intf.none

let crash_schedule schedule =
  Strategy.compile ~name:"crash-schedule"
    (List.fold_right
       (fun (r, pids) rest ->
         Strategy.Both (From (r, Strike (Pids pids, Out)), rest))
       schedule Idle)

(* Omit each message with an endpoint marked in [faulty_b] independently
   with probability [p]. A predicate, not masks: it draws one random float
   per such message, and that draw order is part of the observable
   bit-stream. *)
let coin_at_faulty faulty_b rand p =
  Sim.View.Predicate
    (fun src dst ->
      (Bytes.get faulty_b src <> '\000' || Bytes.get faulty_b dst <> '\000')
      && Sim.Rand.float rand < p)

(** Corrupt [t_max] processes chosen uniformly at round 1, then omit each of
    their incident messages independently with probability [p_omit] — noisy
    but non-strategic omissions. *)
let random_omission ~p_omit =
  {
    Sim.Adversary_intf.name = Printf.sprintf "random-omission(p=%.2f)" p_omit;
    create =
      (fun cfg rand ->
        (* byte-per-pid snapshot of the fault set: the predicate below runs
           once per (src, dst) pair, so probing a Hashtbl there was the
           hottest lookup in randomized runs *)
        let faulty_b = Bytes.make cfg.Sim.Config.n '\000' in
        let chosen = ref false in
        fun _view ->
          let new_faults =
            if !chosen then []
            else begin
              chosen := true;
              let perm = Array.init cfg.Sim.Config.n (fun i -> i) in
              Sim.Rand.shuffle rand perm;
              let victims =
                Array.to_list (Array.sub perm 0 cfg.Sim.Config.t_max)
              in
              List.iter (fun pid -> Bytes.set faulty_b pid '\001') victims;
              victims
            end
          in
          { Sim.View.new_faults; omit = coin_at_faulty faulty_b rand p_omit });
  }

let group_killer ?(group = 0) () =
  Strategy.compile
    ~name:(Printf.sprintf "group-killer(g=%d)" group)
    (Strike (Group group, Local))

let eclipse ~victim =
  Strategy.compile
    ~name:(Printf.sprintf "eclipse(victim=%d)" victim)
    (Again (Strike (Senders victim, Link victim)))

(** The lower-bound adversary (Theorem 2, Lemmas 13-15), played with crash
    faults only — the weakest faults the bound covers. Each round, after the
    local phase (so it has seen the fresh coins), it

    + reads every live undecided process's candidate bit and computes the
      imbalance d = #ones - #zeros;
    + crashes |d| holders of the majority value — coin-flippers first: this
      is the per-round coin-flipping game of Lemma 12, hiding the drifted
      coins at a cost of ~sqrt(k log n) crashes when k processes flipped;
    + crashes one more process *mid-round*, delivering its (majority) vote
      to only half of the survivors: the two halves now compute opposite
      majorities, so deterministic tie-breaking cannot unify them — Lemma
      15's "+1" process per round that keeps the execution bivalent even
      with zero randomness.

    The budget therefore drains at ~(sqrt(k log n) + 1) per round, forcing
    T x (R + T) = Omega(t^2 / log n) before the adversary runs dry. *)
let vote_splitter ?(slack = 0) () =
  {
    Sim.Adversary_intf.name = "vote-splitter";
    create =
      (fun cfg _rand ->
        (* one byte per pid: the crash set is read per sender *)
        let crashed_b = Bytes.make cfg.Sim.Config.n '\000' in
        let crashed pid = Bytes.get crashed_b pid <> '\000' in
        let crash_verdict src =
          if crashed src then Sim.View.Omit_all else Sim.View.Deliver_all
        in
        fun view ->
          let c = [| 0; 0 |] in
          let holders = [| []; [] |] in
          let live = ref [] in
          Array.iter
            (fun o ->
              let pid = o.Sim.View.pid in
              if (not view.Sim.View.faulty.(pid)) && not (crashed pid) then
                match (o.core.candidate, o.core.decided) with
                | Some b, None ->
                    c.(b) <- c.(b) + 1;
                    holders.(b) <- (o.used_randomness, pid) :: holders.(b);
                    live := pid :: !live
                | _ -> ())
            view.obs;
          let d = c.(1) - c.(0) in
          let side = if d >= 0 then 1 else 0 in
          let budget = ref (cfg.Sim.Config.t_max - view.faults_used) in
          let kills = min !budget (max 0 (abs d - slack)) in
          let candidates =
            (* coin-flippers first (fresh randomness is what the coin-game
               adversary hides), then by pid for determinism *)
            List.sort
              (fun (r1, p1) (r2, p2) ->
                match (r1, r2) with
                | true, false -> -1
                | false, true -> 1
                | _ -> compare p1 p2)
              holders.(side)
          in
          let victims =
            List.map snd (List.filteri (fun i _ -> i < kills) candidates)
          in
          budget := !budget - List.length victims;
          List.iter (fun pid -> Bytes.set crashed_b pid '\001') victims;
          (* Lemma 15 split: only meaningful when the kills reached exact
             balance; the splitter must hold the tie-breaking value 1. *)
          let balanced = abs d - List.length victims = 0 in
          let splitter =
            if (not balanced) || !budget < 1 then None
            else
              List.find_opt
                (fun pid ->
                  (not (crashed pid))
                  && List.exists (fun (_, q) -> q = pid) holders.(1))
                (List.sort compare !live)
          in
          match splitter with
          | None ->
              { Sim.View.new_faults = victims; omit = Masks crash_verdict }
          | Some v ->
              (* deliver v's vote to the second half of the survivors only,
                 then silence v forever (a crash in the sending round) *)
              let survivors =
                List.filter
                  (fun pid -> pid <> v && not (crashed pid))
                  (List.sort compare !live)
              in
              let h_size = (List.length survivors + 1) / 2 in
              let hidden_b = Bytes.make cfg.Sim.Config.n '\000' in
              List.iteri
                (fun i pid -> if i < h_size then Bytes.set hidden_b pid '\001')
                survivors;
              (* v joins [crashed] for future rounds, but this round it
                 still delivers to the non-hidden half — the [src = v]
                 dispatch comes first for that reason *)
              Bytes.set crashed_b v '\001';
              {
                Sim.View.new_faults = v :: victims;
                omit =
                  Masks
                    (fun src ->
                      if src = v then Sim.View.Omit_mask hidden_b
                      else crash_verdict src);
              });
  }

let staggered_crash ~per_round =
  Strategy.compile
    ~name:(Printf.sprintf "staggered-crash(%d)" per_round)
    (Again (Strike (Random per_round, Out)))

(** All strategies exercised by the integration test grid, with feasible
    defaults. *)
let standard_suite ~n =
  let s = int_of_float (ceil (sqrt (float_of_int n))) in
  [
    none;
    crash_schedule [ (1, [ 0 ]); (3, [ 1; 2 ]) ];
    random_omission ~p_omit:0.5;
    random_omission ~p_omit:1.0;
    group_killer ();
    vote_splitter ();
    staggered_crash ~per_round:(max 1 (s / 2));
  ]

(** Chaos monkey: each round, with probability [corrupt_rate], corrupt one
    random live process (while budget lasts), and omit every message at a
    faulty endpoint independently with probability [omit_rate]. Driven by
    the adversary's private seed — the random-exploration strategy the
    property-based tests sweep. *)
let chaotic ?(corrupt_rate = 0.3) ?(omit_rate = 0.5) () =
  {
    Sim.Adversary_intf.name = "chaotic";
    create =
      (fun cfg rand ->
        (* byte-per-pid fault flags instead of a Hashtbl probe per message
           pair (see random_omission) *)
        let faulty_b = Bytes.make cfg.Sim.Config.n '\000' in
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
                  let victim = arr.(Sim.Rand.int_below rand (Array.length arr)) in
                  Bytes.set faulty_b victim '\001';
                  [ victim ]
            end
            else []
          in
          let omit = coin_at_faulty faulty_b rand omit_rate in
          { Sim.View.new_faults; omit });
  }

(** [pointwise a]: [a] with every plan's omissions decoded into a
    per-message predicate ({!Sim.View.omits}), forcing the engine onto
    the general per-message delivery path. The observable run is
    unchanged — which is exactly what the equivalence suite and the scale
    bench's classic column use this combinator to demonstrate. *)
let pointwise (a : Sim.Adversary_intf.t) =
  {
    a with
    Sim.Adversary_intf.create =
      (fun cfg rand ->
        let adv = a.Sim.Adversary_intf.create cfg rand in
        fun view ->
          let p = adv view in
          { p with Sim.View.omit = Predicate (Sim.View.omits p.omit) });
  }
