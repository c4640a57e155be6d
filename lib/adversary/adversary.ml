(** Adaptive full-information adversary strategies.

    Every strategy is generic over the protocol: it reads the per-process
    observations ({!Sim.View.obs}: candidate bit, operative flag, decided
    flag, coin usage this round) and the pending messages
    ([iter_envelopes]), and returns corruptions and omissions. Structured
    strategies state their omissions as per-sender masks; the randomized
    ones, whose per-message draw order is observable, as a predicate. The
    engine enforces legality (budget, omissions only at faulty endpoints),
    so strategies here express intent and stay within [t_max]
    themselves. *)

let none = Sim.Adversary_intf.none

let take k l =
  let rec go k acc = function
    | [] -> List.rev acc
    | _ when k = 0 -> List.rev acc
    | x :: tl -> go (k - 1) (x :: acc) tl
  in
  go k [] l

(* Shared helper: maintain a crash set; each round corrupt the newly chosen
   victims and silence every message they send (classic crash semantics:
   outgoing only). The set is one [Bytes] flag per pid, read once per
   sender by the verdict. *)
let crash_set_plan crashed_b new_victims =
  List.iter (fun pid -> Bytes.set crashed_b pid '\001') new_victims;
  {
    Sim.View.new_faults = new_victims;
    omit =
      Masks
        (fun src ->
          if Bytes.get crashed_b src <> '\000' then Sim.View.Omit_all
          else Sim.View.Deliver_all);
  }

(** Crash the given processes at the given rounds (permanently silent from
    that round on). Schedule: [(round, pids); ...]. *)
let crash_schedule schedule =
  {
    Sim.Adversary_intf.name = "crash-schedule";
    create =
      (fun cfg _rand ->
        let crashed_b = Bytes.make cfg.Sim.Config.n '\000' in
        fun view ->
          let victims =
            List.concat_map
              (fun (r, pids) -> if r = view.Sim.View.round then pids else [])
              schedule
          in
          let victims =
            List.filter
              (fun pid ->
                Bytes.get crashed_b pid = '\000'
                && not view.Sim.View.faulty.(pid))
              victims
          in
          let budget = cfg.Sim.Config.t_max - view.faults_used in
          crash_set_plan crashed_b (take budget victims));
  }

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
              List.iter (fun pid -> Bytes.set faulty_b pid '\001') victims;
              victims
            end
          in
          ignore view;
          {
            (* a predicate, not masks: it draws one random float per
               incident message, and that draw order is part of the
               observable bit-stream *)
            Sim.View.new_faults;
            omit =
              Predicate
                (fun src dst ->
                  (Bytes.get faulty_b src <> '\000'
                  || Bytes.get faulty_b dst <> '\000')
                  && Sim.Rand.float rand < p_omit);
          });
  }

(** Corrupt a majority of one sqrt-decomposition group (contiguous pids, as
    the protocols partition them) and silence all their intra-group traffic:
    the aggregation quorum of that group collapses and its survivors go
    inoperative — the scenario of Figure 2's faulty process, scaled up. The
    rest of the system must still decide. *)
let group_killer ?(group = 0) () =
  {
    Sim.Adversary_intf.name = Printf.sprintf "group-killer(g=%d)" group;
    create =
      (fun cfg _rand ->
        let n = cfg.Sim.Config.n in
        let lo, hi = Groups.group (Groups.sqrt_partition n) group in
        let victims_wanted = ((hi - lo) / 2) + 1 in
        let victims =
          List.init (min victims_wanted cfg.Sim.Config.t_max) (( + ) lo)
        in
        let victim_b = Bytes.make n '\000' in
        List.iter (fun pid -> Bytes.set victim_b pid '\001') victims;
        let member_b = Bytes.make n '\000' in
        Bytes.fill member_b lo (hi - lo) '\001';
        (* static fault structure, so the per-sender verdict is built once:
           a victim silences its whole group (victims included), a
           non-victim member loses exactly its victim links, outsiders are
           untouched *)
        let omit =
          Sim.View.Masks
            (fun src ->
              if Bytes.get victim_b src <> '\000' then
                Sim.View.Omit_mask member_b
              else if Bytes.get member_b src <> '\000' then
                Sim.View.Omit_mask victim_b
              else Sim.View.Deliver_all)
        in
        let started = ref false in
        fun _view ->
          let new_faults =
            if !started then []
            else begin
              started := true;
              victims
            end
          in
          { Sim.View.new_faults; omit });
  }

(** Isolate [victim] by corrupting the processes that talk to it and
    omitting exactly their messages to the victim (and the victim's
    replies): with enough budget the victim's expander degree drops below
    Delta/3 and it goes inoperative without a single fault of its own —
    the non-faulty-but-inoperative case the paper's partition is built
    around. Needs t_max above the victim's degree to fully eclipse. *)
let eclipse ~victim =
  {
    Sim.Adversary_intf.name = Printf.sprintf "eclipse(victim=%d)" victim;
    create =
      (fun cfg _rand ->
        let corrupted_b = Bytes.make cfg.Sim.Config.n '\000' in
        let victim_b = Bytes.make cfg.Sim.Config.n '\000' in
        Bytes.set victim_b victim '\001';
        (* the two masks are maintained across rounds, so the verdict is a
           static three-way dispatch: the victim loses its links to the
           corrupted set, a corrupted process loses exactly its link to the
           victim, everyone else is untouched *)
        let omit =
          Sim.View.Masks
            (fun src ->
              if src = victim then Sim.View.Omit_mask corrupted_b
              else if Bytes.get corrupted_b src <> '\000' then
                Sim.View.Omit_mask victim_b
              else Sim.View.Deliver_all)
        in
        fun view ->
          let budget = cfg.Sim.Config.t_max - view.Sim.View.faults_used in
          (* corrupt the processes currently sending to the victim *)
          let senders = Hashtbl.create 16 in
          view.Sim.View.iter_envelopes (fun src dst _bits _hint ->
              if dst = victim && src <> victim then
                Hashtbl.replace senders src ());
          let new_faults =
            Hashtbl.fold
              (fun src () acc ->
                if Bytes.get corrupted_b src = '\000' && not view.faulty.(src)
                then src :: acc
                else acc)
              senders []
          in
          let new_faults = take budget (List.sort compare new_faults) in
          List.iter (fun pid -> Bytes.set corrupted_b pid '\001') new_faults;
          { Sim.View.new_faults; omit });
  }

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
          let victims = List.map snd (take kills candidates) in
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

(** Crash a fixed number of random live processes every round until the
    budget runs out — the blunt staggered-crash stresser. *)
let staggered_crash ~per_round =
  {
    Sim.Adversary_intf.name = Printf.sprintf "staggered-crash(%d)" per_round;
    create =
      (fun cfg rand ->
        let crashed_b = Bytes.make cfg.Sim.Config.n '\000' in
        fun view ->
          let budget = cfg.Sim.Config.t_max - view.Sim.View.faults_used in
          let live = ref [] in
          for pid = cfg.Sim.Config.n - 1 downto 0 do
            if (not view.faulty.(pid)) && Bytes.get crashed_b pid = '\000' then
              live := pid :: !live
          done;
          let live = Array.of_list !live in
          Sim.Rand.shuffle rand live;
          let k = min (min per_round budget) (Array.length live) in
          let victims = Array.to_list (Array.sub live 0 k) in
          crash_set_plan crashed_b victims);
  }

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
          {
            (* a predicate for the same reason as random_omission: the
               per-message randomness draw order is bit-observable *)
            Sim.View.new_faults;
            omit =
              Predicate
                (fun src dst ->
                  (Bytes.get faulty_b src <> '\000'
                  || Bytes.get faulty_b dst <> '\000')
                  && Sim.Rand.float rand < omit_rate);
          });
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
