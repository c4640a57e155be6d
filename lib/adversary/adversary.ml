(** Adaptive full-information adversary strategies.

    Every strategy is generic over the protocol: it reads the per-process
    observations ({!Sim.View.obs}: candidate bit, operative flag, decided
    flag, coin usage this round) and the pending messages
    ([iter_envelopes]), and returns corruptions and omissions. Structured
    strategies are {!Strategy} terms, compiled to per-sender masks, or to
    a per-message predicate in a round whose [Flip] coins draw in message
    order: [random] is the term [strike(rnd<n>,p70)]. Only the vote
    splitter and the test-only [chaotic] are hand-written. The engine
    enforces legality (budget, omissions only at faulty endpoints), so
    strategies here express intent and stay within [t_max] themselves. *)

module Strategy = Strategy

let none = Sim.Adversary_intf.none

let crash_schedule schedule =
  Strategy.compile ~name:"crash-schedule"
    (List.fold_right
       (fun (r, pids) rest ->
         Strategy.Both (From (r, Strike (Pids pids, Out)), rest))
       schedule Idle)

(** Corrupt [t_max] processes chosen uniformly at round 1, then omit each of
    their incident messages independently with probability [p_omit]: the
    term [strike(rnd<n>,p<100 p_omit>)] under this name. *)
let random_omission ~p_omit =
  let pct = Float.to_int (Float.round (p_omit *. 100.)) in
  if pct < 0 || pct > 100 || float_of_int pct /. 100. <> p_omit then
    Printf.ksprintf invalid_arg
      "random_omission: p_omit = %g is not a whole percent in [0, 1]" p_omit;
  let name = Printf.sprintf "random-omission(p=%.2f)" p_omit in
  let compile (cfg : Sim.Config.t) =
    Strategy.compile ~name (Strike (Random cfg.n, Flip pct))
  in
  { Sim.Adversary_intf.name; create = (fun cfg -> (compile cfg).create cfg) }

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

(* --- the name table: a spelling is a name or a strategy term --- *)

let named =
  [
    ("none", fun () -> none);
    ( "crash",
      fun () -> crash_schedule [ (1, [ 0 ]); (2, [ 1 ]); (5, [ 2; 3 ]) ] );
    ("random", fun () -> random_omission ~p_omit:0.7);
    ("group", fun () -> group_killer ());
    ("splitter", fun () -> vote_splitter ());
    ("staggered", fun () -> staggered_crash ~per_round:3);
    ("eclipse", fun () -> eclipse ~victim:0);
  ]

let names = List.map fst named

let term spelling =
  match Strategy.of_string spelling with
  | t -> Some t
  | exception Strategy.Parse_error _ -> None

let canonical spelling =
  if List.mem_assoc spelling named then Some spelling
  else Option.map Strategy.to_string (term spelling)

let resolve spelling =
  match List.assoc_opt spelling named with
  | Some f -> f ()
  | None -> (
      match term spelling with
      | Some t -> Strategy.compile ~name:spelling t
      | None ->
          Printf.ksprintf invalid_arg
            "unknown adversary %S; one of %s, or a strategy term" spelling
            (String.concat ", " names))

let standard_suite ~n =
  let s = int_of_float (ceil (sqrt (float_of_int n))) in
  [
    "none";
    "both(from(1,strike(p0,out)),from(3,strike(p1.2,out)))";
    Printf.sprintf "strike(rnd%d,p50)" n;
    Printf.sprintf "strike(rnd%d,p100)" n;
    "group";
    "splitter";
    Printf.sprintf "again(strike(rnd%d,out))" (max 1 (s / 2));
  ]

(** Chaos monkey: each round, with probability [corrupt_rate], corrupt one
    random live process (while budget lasts), and omit every message at a
    faulty endpoint independently with probability [omit_rate]. Driven by
    the adversary's private seed — the random-exploration strategy the
    property-based tests sweep. It is hand-written because no term says
    it: a strike's target is drawn every active round or never, not on a
    per-round corruption coin, and [Random 1] shuffles every live pid
    where this draws one [int_below]. *)
let chaotic ?(corrupt_rate = 0.3) ?(omit_rate = 0.5) () =
  {
    Sim.Adversary_intf.name = "chaotic";
    create =
      (fun cfg rand ->
        (* byte-per-pid fault flags: the predicate runs once per message *)
        let faulty_b = Bytes.make cfg.Sim.Config.n '\000' in
        fun view ->
          let new_faults =
            if
              view.Sim.View.faults_used < cfg.Sim.Config.t_max
              && Sim.Rand.chance rand corrupt_rate
            then begin
              (* fewer than t_max < n faults: some pid is live *)
              let live = List.init cfg.n Fun.id in
              let live = List.filter (fun p -> not view.faulty.(p)) live in
              let i = Sim.Rand.int_below rand (List.length live) in
              let victim = List.nth live i in
              Bytes.set faulty_b victim '\001';
              [ victim ]
            end
            else []
          in
          let omit src dst =
            (Bytes.get faulty_b src <> '\000'
            || Bytes.get faulty_b dst <> '\000')
            && Sim.Rand.chance rand omit_rate
          in
          { Sim.View.new_faults; omit = Predicate omit });
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
