(* Tests for the synchronous round engine and its enforcement of the
   omission-fault model. *)

(* A tiny instrumentable protocol: every process broadcasts its input every
   round and decides at a fixed round on the parity of messages heard. *)
module Echo = struct
  type state = {
    pid : int;
    n : int;
    input : int;
    mutable heard : int;
    mutable decided : int option;
    mutable coins : int;
  }

  type msg = Ping of int

  let name = "echo"

  let init (cfg : Sim.Config.t) ~pid ~input =
    { pid; n = cfg.n; input; heard = 0; decided = None; coins = 0 }

  let decide_round = 4

  let step_into _cfg st ~round ~inbox ~rand ~emit ~emit_all:_ =
    st.heard <- st.heard + Sim.Mailbox.length inbox;
    (* pid 0 flips a coin every round, to exercise randomness observation *)
    if st.pid = 0 then st.coins <- st.coins + Sim.Rand.bit rand;
    if round = decide_round then st.decided <- Some (st.heard mod 2);
    if round < decide_round then
      for dst = st.n - 1 downto 0 do
        if dst <> st.pid then emit dst (Ping st.input)
      done;
    st

  let observe st =
    {
      Sim.View.candidate = Some st.input;
      operative = true;
      decided = st.decided;
    }

  let msg_bits (Ping _) = 3
  let msg_hint (Ping v) = Some v
end

let cfg ?(n = 8) ?(t = 2) ?(max_rounds = 10) () =
  Sim.Config.make ~n ~t_max:t ~seed:1 ~max_rounds ()

let run ?(adversary = Sim.Adversary_intf.none) ?(n = 8) ?(t = 2) () =
  let cfg = cfg ~n ~t () in
  Sim.Engine.run (module Echo) cfg ~adversary
    ~inputs:(Array.init n (fun i -> i mod 2))

let test_full_delivery () =
  let o = run () in
  Alcotest.(check int) "terminates at decide round" 4
    (match o.Sim.Engine.decided_round with Some r -> r | None -> -1);
  (* 3 broadcast rounds, 8 processes, 7 receivers *)
  Alcotest.(check int) "messages" (3 * 8 * 7) o.messages_sent;
  Alcotest.(check int) "bits = 3 per message" (3 * 8 * 7 * 3) o.bits_sent;
  Alcotest.(check int) "nothing omitted" 0 o.messages_omitted

let test_randomness_accounting () =
  let o = run () in
  (* pid 0 flips one coin per executed round *)
  Alcotest.(check int) "rand calls" o.Sim.Engine.rounds_total o.rand_calls;
  Alcotest.(check int) "rand bits" o.rounds_total o.rand_bits

let test_determinism () =
  let o1 = run () and o2 = run () in
  Alcotest.(check (array (option int))) "same decisions"
    o1.Sim.Engine.decisions o2.Sim.Engine.decisions;
  Alcotest.(check int) "same bits" o1.bits_sent o2.bits_sent

let test_determinism_bit_identical () =
  (* same seed, randomized adversary in the loop: the entire outcome record
     — decisions, fault set, every counter — must be reproduced exactly *)
  let run () = run ~adversary:(Adversary.random_omission ~p_omit:0.4) () in
  let o1 = run () and o2 = run () in
  Alcotest.(check bool) "outcome records bit-identical" true (o1 = o2);
  Alcotest.(check bool) "adversary actually omitted" true
    (o1.Sim.Engine.messages_omitted > 0)

let test_crash_omits () =
  let adversary = Adversary.crash_schedule [ (1, [ 3 ]) ] in
  let o = run ~adversary () in
  Alcotest.(check int) "one fault" 1 o.Sim.Engine.faults_used;
  Alcotest.(check bool) "pid 3 faulty" true o.faulty.(3);
  (* pid 3 broadcasts 7 messages in each of 3 rounds, all omitted *)
  Alcotest.(check int) "omissions counted" (3 * 7) o.messages_omitted

let test_illegal_omission_rejected () =
  let adversary =
    {
      Sim.Adversary_intf.name = "cheater";
      create =
        (fun _ _ _ ->
          Sim.View.pointwise ~new_faults:[] ~omit:(fun _ _ -> true));
    }
  in
  Alcotest.(check bool) "illegal omission raises" true
    (try
       ignore (run ~adversary ());
       false
     with Sim.Engine.Illegal_plan _ -> true)

(* The mask route's legality scan over per-sender verdicts raises the
   same [Illegal_plan] as the general route's per-message predicate: the first
   omission between non-faulty processes in emission order. Echo emits
   pointwise (descending), Flood one broadcast segment. Traced, both
   routes leave the same event prefix: the cheating sender's events
   before the illegal message are emitted, then the run raises. *)
let test_compiled_illegal_matches_general () =
  let n = 8 in
  let cfg = cfg ~n () in
  let mask = Bytes.make n '\000' in
  List.iter (fun d -> Bytes.set mask d '\001') [ 2; 5; 6 ];
  let cheater verdict =
    {
      Sim.Adversary_intf.name = "compiled-cheater";
      create =
        (fun _ _ _ ->
          {
            Sim.View.new_faults = [ 5 ];
            omit =
              Masks
                (fun src -> if src = 3 then verdict else Sim.View.Deliver_all);
          });
    }
  in
  let raised ?trace proto adversary =
    try
      ignore
        (Sim.Engine.run ?trace proto cfg ~adversary
           ~inputs:(Array.init n (fun i -> i mod 2)));
      "no exception"
    with Sim.Engine.Illegal_plan s -> s
  in
  let traced proto adversary =
    let sink, events = Trace.Sink.memory () in
    let s = raised ~trace:sink proto adversary in
    (s, List.map Trace.Event.to_json (events ()))
  in
  List.iter
    (fun (proto : Sim.Protocol_intf.buffered) ->
      List.iter
        (fun verdict ->
          let adv = cheater verdict in
          let fast = raised proto adv in
          Alcotest.(check string)
            "fast = general"
            (raised proto (Adversary.pointwise adv))
            fast;
          Alcotest.(check bool) "raised" true (fast <> "no exception");
          let msg, prefix = traced proto adv in
          let msg', prefix' = traced proto (Adversary.pointwise adv) in
          Alcotest.(check string) "traced mask route" fast msg;
          Alcotest.(check string) "traced general route" fast msg';
          Alcotest.(check (list string)) "trace prefix up to the raise"
            prefix' prefix)
        [ Sim.View.Omit_mask mask; Sim.View.Omit_all ])
    [ (module Echo); Consensus.Flood.protocol_buffered cfg ]

(* A checked sender's drop run that reaches a non-faulty destination:
   the mask alone decides, so the walk checks the run destination by
   destination and stops at the first illegal one, in mid-run or at its
   first destination, reporting the legal part before it. Pid 1 (never
   faulty) drops [dropped] after pids 4-6 are corrupted; its one
   broadcast a round goes through the round-shared table when wide (pids
   0-15) and row by row when narrow (pids 2-8), ascending or descending.
   With a tail or without a sink the run raises the message the
   per-message predicate route raises, naming the first illegal
   destination in emission order, and the tail holds the predicate
   route's events. *)
let spray ~lo ~hi ~desc : Sim.Protocol_intf.buffered =
  (module struct
    type state = { pid : int; input : int; mutable decided : int option }
    type msg = unit

    let name = "spray"
    let init _ ~pid ~input = { pid; input; decided = None }

    let step_into _ st ~round ~inbox:_ ~rand:_ ~emit:_ ~emit_all =
      if round < 3 then emit_all ~lo ~hi ~skip:st.pid ~desc ()
      else st.decided <- Some st.input;
      st

    let observe st =
      { Sim.View.candidate = Some st.input; operative = true; decided = st.decided }

    let msg_bits () = 1
    let msg_hint () = None
  end)

let test_illegal_drop_run_traced () =
  let n = 16 in
  let cfg = cfg ~n ~t:3 () in
  let inputs = Array.init n (fun i -> i mod 2) in
  let cheater dropped =
    let mask = Bytes.make n '\000' in
    List.iter (fun d -> Bytes.set mask d '\001') dropped;
    {
      Sim.Adversary_intf.name = "run-cheater";
      create =
        (fun _ _ _ ->
          {
            Sim.View.new_faults = [ 4; 5; 6 ];
            omit =
              Masks
                (fun src ->
                  if src = 1 then Sim.View.Omit_mask mask else Deliver_all);
          });
    }
  in
  let raised ?trace proto adversary =
    try
      ignore (Sim.Engine.run ?trace proto cfg ~adversary ~inputs);
      "no exception"
    with Sim.Engine.Illegal_plan s -> s
  in
  List.iter
    (fun (lo, hi) ->
      List.iter
        (fun desc ->
          List.iter
            (fun (dropped, first_illegal) ->
              let proto = spray ~lo ~hi ~desc in
              let adv = cheater dropped in
              let what =
                Printf.sprintf "%d..%d desc=%b drops %s" lo hi desc
                  (String.concat "," (List.map string_of_int dropped))
              in
              let want =
                Printf.sprintf
                  "omission between non-faulty 1 -> %d at round 1"
                  first_illegal
              in
              let tail = Trace.Tail.create ~rounds:2 () in
              let memory, events = Trace.Sink.memory () in
              Alcotest.(check string) (what ^ ": untraced") want (raised proto adv);
              Alcotest.(check string) (what ^ ": tail") want
                (raised ~trace:(Trace.Tail.sink tail) proto adv);
              Alcotest.(check string) (what ^ ": predicate route") want
                (raised ~trace:memory proto (Adversary.pointwise adv));
              Alcotest.(check (list string)) (what ^ ": tail = predicate route")
                (List.map Trace.Event.to_json (events ()))
                (Trace.Tail.lines tail))
            (* the illegal destination in mid-run, then first *)
            (if desc then [ ([ 3; 4; 5; 6 ], 3); ([ 4; 5; 6; 7 ], 7) ]
             else [ ([ 4; 5; 6; 7 ], 7); ([ 3; 4; 5; 6 ], 3) ]))
        [ false; true ])
    [ (0, n - 1); (2, 8) ]

let test_budget_enforced () =
  let adversary =
    {
      Sim.Adversary_intf.name = "greedy";
      create =
        (fun _ _ view ->
          ignore view;
          Sim.View.pointwise ~new_faults:[ 0; 1; 2 ] ~omit:(fun _ _ -> false));
    }
  in
  Alcotest.(check bool) "budget overrun raises" true
    (try
       ignore (run ~t:2 ~adversary ());
       false
     with Sim.Engine.Illegal_plan _ -> true)

let test_faulty_omission_allowed () =
  (* omissions touching a faulty endpoint are legal in both directions *)
  let adversary =
    {
      Sim.Adversary_intf.name = "incoming-omitter";
      create =
        (fun _ _ view ->
          if view.Sim.View.round = 1 then
            Sim.View.pointwise ~new_faults:[ 5 ] ~omit:(fun _ dst -> dst = 5)
          else Sim.View.pointwise ~new_faults:[] ~omit:(fun _ dst -> dst = 5));
    }
  in
  let o = run ~adversary () in
  (* 7 senders to pid 5 for 3 rounds *)
  Alcotest.(check int) "incoming omitted" 21 o.Sim.Engine.messages_omitted

let test_inbox_sorted_by_sender () =
  let module Probe = struct
    type state = { pid : int; n : int; mutable ok : bool; mutable decided : int option }
    type msg = M

    let name = "probe"
    let init (cfg : Sim.Config.t) ~pid ~input:_ =
      { pid; n = cfg.n; ok = true; decided = None }

    let step_into _cfg st ~round ~inbox ~rand:_ ~emit ~emit_all:_ =
      let last = ref (-1) in
      Sim.Mailbox.iter inbox (fun src M ->
          if src < !last then st.ok <- false;
          last := src);
      if round = 3 then st.decided <- Some (if st.ok then 1 else 0);
      if round < 3 then
        for dst = st.n - 1 downto 0 do
          if dst <> st.pid then emit dst M
        done;
      st

    let observe st =
      { Sim.View.candidate = None; operative = true; decided = st.decided }

    let msg_bits M = 1
    let msg_hint M = None
  end in
  let cfg = cfg () in
  let o =
    Sim.Engine.run (module Probe) cfg ~adversary:Sim.Adversary_intf.none
      ~inputs:(Array.make 8 0)
  in
  Alcotest.(check (option int)) "inboxes sorted" (Some 1)
    (Sim.Engine.agreed_decision o)

let test_max_rounds_cap () =
  let module Forever = struct
    type state = unit
    type msg = |

    let name = "forever"
    let init _ ~pid:_ ~input:_ = ()
    let step_into _ st ~round:_ ~inbox:_ ~rand:_ ~emit:_ ~emit_all:_ = st
    let observe () =
      { Sim.View.candidate = None; operative = true; decided = None }
    let msg_bits (_ : msg) = 1
    let msg_hint (_ : msg) = None
  end in
  let cfg = cfg ~max_rounds:7 () in
  let o =
    Sim.Engine.run (module Forever) cfg ~adversary:Sim.Adversary_intf.none
      ~inputs:(Array.make 8 0)
  in
  Alcotest.(check int) "capped" 7 o.Sim.Engine.rounds_total;
  Alcotest.(check (option int)) "no termination" None o.decided_round;
  Alcotest.(check bool) "not all decided" false
    (Sim.Engine.all_nonfaulty_decided o)

let test_stop_hook () =
  (* the supervision hook: checked after every round, same halt semantics
     as max_rounds — the run ends undecided with its counters intact *)
  let cfg = cfg () in
  let seen = ref [] in
  let o =
    Sim.Engine.run (module Echo) cfg ~adversary:Sim.Adversary_intf.none
      ~inputs:(Array.init 8 (fun i -> i mod 2))
      ~stop:(fun p ->
        seen := p :: !seen;
        p.Sim.Engine.p_round >= 2)
  in
  Alcotest.(check int) "halted at round 2" 2 o.Sim.Engine.rounds_total;
  Alcotest.(check (option int)) "undecided" None o.decided_round;
  match List.rev !seen with
  | [ p1; p2 ] ->
      Alcotest.(check int) "round 1 progress" 1 p1.Sim.Engine.p_round;
      (* 8 processes broadcast to 7 peers, 3 bits per message *)
      Alcotest.(check int) "messages after round 1" 56 p1.p_messages;
      Alcotest.(check int) "bits after round 1" (56 * 3) p1.p_bits;
      Alcotest.(check int) "rand bits after round 1" 1 p1.p_rand_bits;
      Alcotest.(check int) "counters cumulative" 112 p2.p_messages;
      Alcotest.(check int) "rand calls tracked" 2 p2.p_rand_calls
  | l -> Alcotest.fail (Printf.sprintf "expected 2 probes, got %d" (List.length l))

let test_stop_not_consulted_after_decision () =
  (* a decision at round 4 ends the run before the hook is consulted for
     that round: deciding always wins over supervision *)
  let calls = ref 0 in
  let cfg = cfg () in
  let o =
    Sim.Engine.run (module Echo) cfg ~adversary:Sim.Adversary_intf.none
      ~inputs:(Array.init 8 (fun i -> i mod 2))
      ~stop:(fun _ ->
        incr calls;
        false)
  in
  Alcotest.(check (option int)) "decided normally" (Some 4) o.Sim.Engine.decided_round;
  Alcotest.(check int) "hook consulted for undecided rounds only" 3 !calls

let test_out_of_range_corruption_rejected () =
  let adversary =
    {
      Sim.Adversary_intf.name = "wild";
      create =
        (fun _ _ view ->
          if view.Sim.View.round = 1 then
            Sim.View.pointwise ~new_faults:[ 99 ] ~omit:(fun _ _ -> false)
          else Sim.View.no_op);
    }
  in
  Alcotest.(check bool) "pid 99 corruption raises" true
    (try
       ignore (run ~adversary ());
       false
     with Sim.Engine.Illegal_plan _ -> true)

let test_exact_budget_boundary_allowed () =
  (* corrupting exactly t processes is legal; it is the (t+1)-th that
     the engine rejects *)
  let adversary =
    {
      Sim.Adversary_intf.name = "edge";
      create =
        (fun _ _ view ->
          if view.Sim.View.round = 1 then
            Sim.View.pointwise ~new_faults:[ 0; 1 ] ~omit:(fun _ _ -> false)
          else Sim.View.no_op);
    }
  in
  let o = run ~t:2 ~adversary () in
  Alcotest.(check int) "full budget used" 2 o.Sim.Engine.faults_used;
  Alcotest.(check bool) "both marked" true (o.faulty.(0) && o.faulty.(1))

let test_recorruption_is_free () =
  (* re-declaring an already-faulty process consumes no budget *)
  let adversary =
    {
      Sim.Adversary_intf.name = "repeater";
      create =
        (fun _ _ _ ->
          Sim.View.pointwise ~new_faults:[ 5 ] ~omit:(fun _ _ -> false));
    }
  in
  let o = run ~t:2 ~adversary () in
  Alcotest.(check int) "one fault despite re-declares" 1
    o.Sim.Engine.faults_used;
  Alcotest.(check bool) "pid 5 faulty" true o.faulty.(5)

let test_view_contents () =
  (* the adversary sees candidates and coin usage; the pending messages
     are checked against the [Send] stream below *)
  let seen_coin = ref false in
  let adversary =
    {
      Sim.Adversary_intf.name = "observer";
      create =
        (fun _ _ view ->
          if view.Sim.View.obs.(0).used_randomness then seen_coin := true;
          Sim.View.no_op);
    }
  in
  let (_ : Sim.Engine.outcome) = run ~adversary () in
  Alcotest.(check bool) "coin visible" true !seen_coin

(* The pending messages an adversary walks are the messages a
   message-level sink is told about: each round, the [iter_envelopes]
   calls, in order, equal that round's [Send] events. Flood emits
   broadcast segments; Algorithm 1 at n = 96 emits pointwise rows over a
   sparse expander. *)
let test_walk_is_send_stream () =
  let check ~what (proto : Sim.Protocol_intf.buffered) (cfg : Sim.Config.t)
      (inner : Sim.Adversary_intf.t) =
    let walked = Hashtbl.create 64 in
    let adversary =
      {
        inner with
        Sim.Adversary_intf.create =
          (fun cfg rand ->
            let adv = inner.Sim.Adversary_intf.create cfg rand in
            fun view ->
              let acc = ref [] in
              view.Sim.View.iter_envelopes (fun src dst bits hint ->
                  acc := (src, dst, bits, hint) :: !acc);
              Hashtbl.replace walked view.Sim.View.round (List.rev !acc);
              adv view);
      }
    in
    let sink, events = Trace.Sink.memory () in
    let o =
      Sim.Engine.run ~trace:sink proto cfg ~adversary
        ~inputs:(Array.init cfg.n (fun i -> i mod 2))
    in
    let sent = Hashtbl.create 64 in
    List.iter
      (function
        | Trace.Event.Send { round; src; dst; bits; hint } ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt sent round) in
            Hashtbl.replace sent round ((src, dst, bits, hint) :: prev)
        | _ -> ())
      (events ());
    let total = ref 0 in
    for r = 1 to o.Sim.Engine.rounds_total do
      let sends = List.rev (Option.value ~default:[] (Hashtbl.find_opt sent r))
      and walk = Option.value ~default:[] (Hashtbl.find_opt walked r) in
      if sends <> walk then
        Alcotest.failf "%s round %d: walk of %d messages, %d Send events" what
          r (List.length walk) (List.length sends);
      total := !total + List.length walk
    done;
    Alcotest.(check int) (what ^ ": every message walked") o.messages_sent
      !total
  in
  let flood_cfg = Sim.Config.make ~n:32 ~t_max:3 ~seed:1 ~max_rounds:10 () in
  check ~what:"flood" (Consensus.Flood.protocol_buffered flood_cfg) flood_cfg
    (Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]) ]);
  let n = 96 in
  let cfg0 = Sim.Config.make ~n ~t_max:(n / 31) ~seed:1 ~max_rounds:1 () in
  let cfg =
    {
      cfg0 with
      Sim.Config.max_rounds =
        Consensus.Optimal_omissions.rounds_needed cfg0 + 10;
    }
  in
  check ~what:"optimal n=96"
    (Consensus.Optimal_omissions.protocol_buffered cfg)
    cfg (Adversary.vote_splitter ())

(* The general route asks each message's verdict in emission order. Per
   round the predicate sees the senders in ascending order and, within a
   sender, the reverse of its pending-message walk entries (the walk lists
   a sender's messages in reverse emission order); the link sees the same
   sequence without the omitted messages. *)
let test_general_route_emission_order () =
  let check ~what (proto : Sim.Protocol_intf.buffered) (cfg : Sim.Config.t) =
    let inner = Adversary.random_omission ~p_omit:0.5 in
    let walked = Hashtbl.create 64 and asked = Hashtbl.create 64 in
    let transmitted = Hashtbl.create 64 in
    let find tbl r = Option.value ~default:[] (Hashtbl.find_opt tbl r) in
    let adversary =
      {
        inner with
        Sim.Adversary_intf.create =
          (fun cfg rand ->
            let adv = inner.Sim.Adversary_intf.create cfg rand in
            fun view ->
              let r = view.Sim.View.round in
              let acc = ref [] in
              view.Sim.View.iter_envelopes (fun src dst _ _ ->
                  acc := (src, dst) :: !acc);
              Hashtbl.replace walked r (List.rev !acc);
              let plan = adv view in
              match plan.Sim.View.omit with
              | Sim.View.Predicate p ->
                  let p' src dst =
                    let v = p src dst in
                    Hashtbl.replace asked r ((src, dst, v) :: find asked r);
                    v
                  in
                  { plan with Sim.View.omit = Sim.View.Predicate p' }
              | Sim.View.Masks _ -> Alcotest.fail "expected a predicate plan");
      }
    in
    let link =
      {
        Sim.Link_intf.name = "recorder";
        reset = (fun ~seed:_ -> ());
        begin_round = (fun ~round:_ -> ());
        transmit =
          (fun ~trace:_ ~round ~src ~dst ->
            Hashtbl.replace transmitted round
              ((src, dst) :: find transmitted round);
            Sim.Link_intf.Delivered);
      }
    in
    let o =
      Sim.Engine.run ~link proto cfg ~adversary
        ~inputs:(Array.init cfg.n (fun i -> i mod 2))
    in
    let total = ref 0 in
    for r = 1 to o.Sim.Engine.rounds_total do
      let walk = find walked r and asks = List.rev (find asked r) in
      let emission =
        List.concat_map
          (fun pid -> List.rev (List.filter (fun (s, _) -> s = pid) walk))
          (List.init cfg.n Fun.id)
      in
      if List.map (fun (s, d, _) -> (s, d)) asks <> emission then
        Alcotest.failf "%s round %d: predicate calls out of emission order"
          what r;
      let kept =
        List.filter_map (fun (s, d, v) -> if v then None else Some (s, d)) asks
      in
      if List.rev (find transmitted r) <> kept then
        Alcotest.failf "%s round %d: transmit calls differ from survivors"
          what r;
      total := !total + List.length asks
    done;
    Alcotest.(check int) (what ^ ": one verdict per message") o.messages_sent
      !total;
    Alcotest.(check bool) (what ^ ": some message omitted") true
      (o.messages_omitted > 0)
  in
  (* dolev-strong repeats destinations within a sender's round *)
  let ds_cfg = Sim.Config.make ~n:16 ~t_max:3 ~seed:1 () in
  check ~what:"dolev-strong n=16"
    (Consensus.Dolev_strong.protocol_buffered ds_cfg)
    ds_cfg;
  (* optimal mixes descending whole-instance segments with pointwise rows *)
  let cfg0 = Sim.Config.make ~n:24 ~t_max:1 ~seed:1 ~max_rounds:1 () in
  let opt_cfg =
    {
      cfg0 with
      Sim.Config.max_rounds =
        Consensus.Optimal_omissions.rounds_needed cfg0 + 10;
    }
  in
  check ~what:"optimal n=24"
    (Consensus.Optimal_omissions.protocol_buffered opt_cfg)
    opt_cfg;
  (* flood broadcasts through ascending segments *)
  let flood_cfg = Sim.Config.make ~n:32 ~t_max:8 ~seed:1 () in
  check ~what:"flood n=32" (Consensus.Flood.protocol_buffered flood_cfg)
    flood_cfg

(* Route witness for the general route's table delivery. Flood under
   [random_omission] (a [Predicate] plan) broadcasts one wide segment per
   sender a round, so its survivors go through the round-shared table:
   from round 2 on every inbox holds no pointwise row, and reads exactly
   the previous round's [Deliver] events towards its owner, senders
   ascending, each carrying the record its sender emitted. The engine
   steps pids in ascending order, which the wrapper uses to name the
   pid it runs. *)
let test_general_route_table () =
  let n = 64 in
  let cfg = Sim.Config.make ~n ~t_max:8 ~seed:3 () in
  let module F = (val Consensus.Flood.protocol_buffered cfg) in
  let emitted = Hashtbl.create 64 and read = Hashtbl.create 64 in
  let stepped = ref (0, 0) in
  let module W = struct
    include F

    let step_into cfg st ~round ~inbox ~rand ~emit ~emit_all =
      let pid =
        match !stepped with r, p when r = round -> p + 1 | _ -> 0
      in
      stepped := (round, pid);
      Hashtbl.replace read (round, pid)
        (Sim.Mailbox.point_length inbox, Sim.Mailbox.to_list inbox);
      let emit_all ~lo ~hi ~skip ~desc m =
        Hashtbl.replace emitted (round, pid) m;
        emit_all ~lo ~hi ~skip ~desc m
      in
      F.step_into cfg st ~round ~inbox ~rand ~emit ~emit_all
  end in
  let sink, events = Trace.Sink.memory () in
  let o =
    Sim.Engine.run ~trace:sink
      (module W)
      cfg
      ~adversary:(Adversary.random_omission ~p_omit:0.5)
      ~inputs:(Array.init n (fun i -> i mod 2))
  in
  let events = events () in
  let delivered = ref 0 in
  for r = 2 to o.Sim.Engine.rounds_total do
    for pid = 0 to n - 1 do
      let points, rows = Hashtbl.find read (r, pid) in
      if points <> 0 then
        Alcotest.failf "round %d pid %d: %d pointwise inbox rows" r pid points;
      let expected =
        List.filter_map
          (function
            | Trace.Event.Deliver { round; src; dst }
              when round = r - 1 && dst = pid ->
                Some (src, Hashtbl.find emitted (r - 1, src))
            | _ -> None)
          events
      in
      if
        List.map fst rows <> List.map fst expected
        || not (List.for_all2 (fun (_, a) (_, b) -> a == b) rows expected)
      then Alcotest.failf "round %d pid %d: inbox differs from Deliver" r pid;
      delivered := !delivered + List.length rows
    done
  done;
  Alcotest.(check bool) "some message omitted" true (o.messages_omitted > 0);
  Alcotest.(check bool) "some message delivered from round 2" true
    (!delivered > 0)

(* Link losses are never counted as omissions. Even pids send pointwise
   rows, odd pids one wide broadcast segment, whose survivors go through
   the round-shared table. Pids 1 and 2 are corrupted in round 1; a
   [Masks] plan gives them [Omit_mask]/[Omit_all] verdicts, and gives
   non-faulty pids 0 and 3 masks towards them. A test link loses every
   message it carries with [(round + src + dst) mod 3 = 0]. With the
   link (general route) and without it (mask route), [messages_omitted]
   is exactly the plan's 24 omissions and [messages_sent] all 168
   messages; what the inboxes hold is what neither dropped. *)
module Mixed = struct
  type state = { pid : int; n : int; mutable decided : int option }
  type msg = int

  let name = "mixed"
  let init (cfg : Sim.Config.t) ~pid ~input:_ = { pid; n = cfg.n; decided = None }
  let heard = ref 0

  let step_into _cfg st ~round ~inbox ~rand:_ ~emit ~emit_all =
    heard := !heard + Sim.Mailbox.length inbox;
    if round = 4 then st.decided <- Some 0
    else if st.pid mod 2 = 0 then
      for dst = 0 to st.n - 1 do
        if dst <> st.pid then emit dst round
      done
    else emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false round;
    st

  let observe st =
    { Sim.View.candidate = None; operative = true; decided = st.decided }

  let msg_bits _ = 1
  let msg_hint _ = None
end

let test_link_losses_not_omissions () =
  let n = 8 in
  let omit dsts =
    let b = Bytes.make n '\000' in
    List.iter (fun d -> Bytes.set b d '\001') dsts;
    Sim.View.Omit_mask b
  in
  (* per round: 13, 10 and 1 omissions *)
  let verdict round src =
    match (round, src) with
    | 1, 0 -> omit [ 1 ]
    | 1, 1 -> omit [ 0; 3; 4 ]
    | 1, 2 -> Sim.View.Omit_all
    | 1, 3 -> omit [ 1; 2 ]
    | 2, 1 -> Sim.View.Omit_all
    | 2, 2 -> omit [ 5; 6; 7 ]
    | 3, 2 -> omit [ 1 ]
    | _ -> Sim.View.Deliver_all
  in
  let adversary =
    {
      Sim.Adversary_intf.name = "masks";
      create =
        (fun _ _ view ->
          let r = view.Sim.View.round in
          {
            Sim.View.new_faults = (if r = 1 then [ 1; 2 ] else []);
            omit = Sim.View.Masks (verdict r);
          });
    }
  in
  let lost = ref 0 in
  let link =
    {
      Sim.Link_intf.name = "lossy";
      reset = (fun ~seed:_ -> lost := 0);
      begin_round = (fun ~round:_ -> ());
      transmit =
        (fun ~trace:_ ~round ~src ~dst ->
          if (round + src + dst) mod 3 = 0 then begin
            incr lost;
            Sim.Link_intf.Lost
          end
          else Sim.Link_intf.Delivered);
    }
  in
  List.iter
    (fun (what, link) ->
      Mixed.heard := 0;
      let o =
        Sim.Engine.run ?link (module Mixed) (cfg ~n ()) ~adversary
          ~inputs:(Array.make n 0)
      in
      let lost = if Option.is_some link then !lost else 0 in
      Alcotest.(check int) (what ^ ": sent") 168 o.Sim.Engine.messages_sent;
      Alcotest.(check int) (what ^ ": omitted") 24 o.messages_omitted;
      Alcotest.(check int) (what ^ ": heard") (168 - 24 - lost) !Mixed.heard)
    [ ("mask route", None); ("general route", Some link) ];
  Alcotest.(check bool) "the link lost some messages" true (!lost > 0)

(* A reused instance outlives its runs: once a traced run returns, the
   instance must hold nothing that keeps the run's sink (and the events
   it buffers) alive, or every later run pays for the last one's trace.
   It keeps its states array across runs, but not the states: at most
   one of a finished run's eight states survives. *)
let test_instance_releases_sink () =
  let cfg = cfg () in
  let states = Weak.create 8 in
  let proto : Sim.Protocol_intf.buffered =
    (module struct
      include Echo

      let init cfg ~pid ~input =
        let st = Echo.init cfg ~pid ~input in
        Weak.set states pid (Some st);
        st
    end)
  in
  let inst = Sim.Engine.instance proto cfg in
  let inputs = Array.init 8 (fun i -> i mod 2) in
  let weak = Weak.create 1 in
  let traced_run () =
    let sink, _ = Trace.Sink.memory () in
    Weak.set weak 0 (Some sink);
    ignore
      (Sim.Engine.run_instance ~trace:sink inst
         ~adversary:Sim.Adversary_intf.none ~inputs)
  in
  (Sys.opaque_identity traced_run) ();
  Gc.full_major ();
  Alcotest.(check bool) "sink collected" false (Weak.check weak 0);
  let live = ref 0 in
  for pid = 0 to 7 do
    if Weak.check states pid then incr live
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 8 states kept <= 1" !live)
    true (!live <= 1);
  (* the instance is still in use *)
  let o =
    Sim.Engine.run_instance inst ~adversary:Sim.Adversary_intf.none ~inputs
  in
  Alcotest.(check (option int)) "reused run decides" (Some 4)
    o.Sim.Engine.decided_round

let test_agreed_decision_helpers () =
  let o = run () in
  (* echo decides on parity of heard count: all hear the same here *)
  Alcotest.(check bool) "all decided" true (Sim.Engine.all_nonfaulty_decided o);
  Alcotest.(check bool) "agreement helper consistent" true
    (Sim.Engine.agreed_decision o <> None)

(* Edge cases for the outcome helpers, on records built directly: faulty
   processes must be ignored entirely, and a single undecided or
   disagreeing non-faulty process must flip the verdict wherever it sits. *)
let test_outcome_helper_edges () =
  let outcome ~decisions ~faulty =
    {
      Sim.Engine.decisions;
      faulty;
      rounds_total = 1;
      decided_round = None;
      messages_sent = 0;
      bits_sent = 0;
      messages_omitted = 0;
      rand_calls = 0;
      rand_bits = 0;
      faults_used = 0;
    }
  in
  let faulty_majority =
    outcome
      ~decisions:[| None; Some 1; None; Some 1; None |]
      ~faulty:[| true; false; true; false; true |]
  in
  Alcotest.(check bool) "faulty majority: undecided faulty ignored" true
    (Sim.Engine.all_nonfaulty_decided faulty_majority);
  Alcotest.(check (option int)) "faulty majority: agreement on survivors"
    (Some 1)
    (Sim.Engine.agreed_decision faulty_majority);
  let all_faulty =
    outcome ~decisions:[| None; None |] ~faulty:[| true; true |]
  in
  Alcotest.(check bool) "all faulty: vacuously decided" true
    (Sim.Engine.all_nonfaulty_decided all_faulty);
  Alcotest.(check (option int)) "all faulty: no agreed value" None
    (Sim.Engine.agreed_decision all_faulty);
  let disagreement =
    outcome
      ~decisions:[| Some 0; Some 1; None |]
      ~faulty:[| false; false; true |]
  in
  Alcotest.(check bool) "disagreement: still all decided" true
    (Sim.Engine.all_nonfaulty_decided disagreement);
  Alcotest.(check (option int)) "disagreement: no agreed value" None
    (Sim.Engine.agreed_decision disagreement);
  let late_disagreement =
    outcome
      ~decisions:[| Some 1; Some 1; Some 0 |]
      ~faulty:[| false; false; false |]
  in
  Alcotest.(check (option int)) "late disagreement detected" None
    (Sim.Engine.agreed_decision late_disagreement);
  let mid_undecided =
    outcome
      ~decisions:[| Some 0; None; Some 0 |]
      ~faulty:[| false; false; false |]
  in
  Alcotest.(check bool) "mid-array undecided non-faulty detected" false
    (Sim.Engine.all_nonfaulty_decided mid_undecided);
  Alcotest.(check (option int)) "undecided blocks agreement" None
    (Sim.Engine.agreed_decision mid_undecided)

let test_instance_construction_linear () =
  (* Mailboxes must start tiny and grow on demand: a ~hint:n at creation
     would allocate 2n buffers of n slots — O(n^2) words — before the
     first round. At n = 4096 that is ~33M words; O(n) construction stays
     under a small multiple of n. *)
  let n = 4096 in
  let cfg = Sim.Config.make ~n ~t_max:1 ~seed:1 ~max_rounds:8 () in
  let proto = Consensus.Flood.protocol_buffered cfg in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let inst = Sim.Engine.instance proto cfg in
  let after = Gc.allocated_bytes () in
  let words = (after -. before) /. float_of_int (Sys.word_size / 8) in
  ignore inst;
  Alcotest.(check bool)
    (Printf.sprintf "instance allocates %.0f words <= 200n" words)
    true
    (words <= 200. *. float_of_int n)

let test_instance_no_forced_minor () =
  (* An array of more than 256 words seeded with a young value makes the
     runtime empty the minor heap before allocating it: construction at
     n = 1024 must build its per-pid arrays without one. *)
  let n = 1024 in
  let cfg = Sim.Config.make ~n ~t_max:1 ~seed:1 ~max_rounds:8 () in
  let proto = Consensus.Flood.protocol_buffered cfg in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let inst = Sim.Engine.instance proto cfg in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  ignore inst;
  Alcotest.(check int) "minor collections during instance" before after

(* A run on a warmed instance at n = 1024 forces no minor collection:
   the per-process states are refilled in place, and the outcome's
   decisions are built without a young seed value. *)
let test_run_no_forced_minor () =
  let n = 1024 in
  let cfg = Sim.Config.make ~n ~t_max:1 ~seed:1 ~max_rounds:8 () in
  let inst = Sim.Engine.instance (Consensus.Flood.protocol_buffered cfg) cfg in
  let inputs = Array.init n (fun i -> i mod 2) in
  let run () =
    Sim.Engine.run_instance inst ~adversary:Sim.Adversary_intf.none ~inputs
  in
  let warm = run () in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let o = run () in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check bool) "same outcome as the warming run" true (o = warm);
  Alcotest.(check bool) "decided" true (o.Sim.Engine.decided_round <> None);
  Alcotest.(check int) "minor collections during a run" before after

(* The engine's verdict walk must write one verdict per message: a
   predicate that raises [Mailbox.Stop] must not end the walk quietly
   and deliver the sender's remaining messages on stale verdict bytes.
   Flood's first round at n = 8 has sender 0 broadcast to 1..7; the
   predicate stops at its first, a middle and its last message. *)
let test_verdict_walk_refuses_stop () =
  let cfg = Sim.Config.make ~n:8 ~t_max:1 ~seed:1 ~max_rounds:6 () in
  let stop_at dst =
    {
      Sim.Adversary_intf.name = "stop";
      create =
        (fun _ _ _ ->
          Sim.View.pointwise ~new_faults:[] ~omit:(fun s d ->
              if s = 0 && d = dst then raise_notrace Sim.Mailbox.Stop;
              false));
    }
  in
  List.iter
    (fun dst ->
      Alcotest.check_raises
        (Printf.sprintf "Stop at 0 -> %d" dst)
        (Invalid_argument "Engine.run: a verdict walk raised Mailbox.Stop")
        (fun () ->
          ignore
            (Sim.Engine.run (Consensus.Flood.protocol_buffered cfg) cfg
               ~adversary:(stop_at dst)
               ~inputs:(Array.init 8 (fun i -> i mod 2)))))
    [ 1; 4; 7 ]

let test_alg1_allocation_per_message () =
  (* Algorithm 1's round allocates per message record and per process,
     never once per message sent: pricing, emission and delivery build no
     closure and no box per message. A run on an instance already warmed
     by one run (so every buffer sits at its high-water mark) must stay
     within a few minor words per message; one closure per message priced
     alone would cost about five. *)
  let n = 96 in
  let cfg0 = Sim.Config.make ~n ~t_max:(n / 31) ~seed:1 ~max_rounds:1 () in
  let cfg =
    {
      cfg0 with
      Sim.Config.max_rounds =
        Consensus.Optimal_omissions.rounds_needed cfg0 + 10;
    }
  in
  let inst =
    Sim.Engine.instance (Consensus.Optimal_omissions.protocol_buffered cfg) cfg
  in
  let inputs = Array.init n (fun i -> i mod 2) in
  let run () =
    Sim.Engine.run_instance inst ~adversary:(Adversary.vote_splitter ())
      ~inputs
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let o = run () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "decided" true (o.Sim.Engine.decided_round <> None);
  let per_msg = words /. float_of_int o.Sim.Engine.messages_sent in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per message sent <= 8" per_msg)
    true (per_msg <= 8.)

(* A coin is a draw, not an allocation. Flood under [random_omission]
   draws one coin per message incident to a faulty process, and a warmed
   instance must allocate fewer words a round than it draws coins: a
   boxed draw alone costs two words. [t = 32] keeps the protocol's own
   words per round well below the coins. The adversary's shuffle at
   round 1 charges [n - 1] calls to the same counter, which are not
   coins. *)
let test_coin_draws_allocate_nothing () =
  let n = 256 in
  let cfg = Sim.Config.make ~n ~t_max:32 ~seed:1 () in
  let inst = Sim.Engine.instance (Consensus.Flood.protocol_buffered cfg) cfg in
  let counter = ref None in
  let inner = Adversary.random_omission ~p_omit:0.5 in
  let adversary =
    {
      inner with
      Sim.Adversary_intf.create =
        (fun cfg rand ->
          counter := Some (Sim.Rand.counter rand);
          inner.Sim.Adversary_intf.create cfg rand);
    }
  in
  let inputs = Array.init n (fun i -> i mod 2) in
  let run () = Sim.Engine.run_instance inst ~adversary ~inputs in
  ignore (run ());
  let before = Gc.minor_words () in
  let o = run () in
  let words = Gc.minor_words () -. before in
  let coins = Sim.Rand.Counter.calls (Option.get !counter) - (n - 1) in
  let rounds = float_of_int o.Sim.Engine.rounds_total in
  Alcotest.(check bool) "decided" true (o.Sim.Engine.decided_round <> None);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per round < %.1f coins per round"
       (words /. rounds)
       (float_of_int coins /. rounds))
    true
    (words < float_of_int coins)

let test_alg1_pricing_per_record () =
  (* Each spreading slot sends one shared delta record to every live
     neighbour, and each C slot one result record per parent bag: the
     engine prices a run of one shared record once, not once per
     destination. *)
  let n = 96 in
  let cfg0 = Sim.Config.make ~n ~t_max:(n / 31) ~seed:1 ~max_rounds:1 () in
  let cfg =
    {
      cfg0 with
      Sim.Config.max_rounds =
        Consensus.Optimal_omissions.rounds_needed cfg0 + 10;
    }
  in
  let calls = ref 0 in
  let (module P) = Consensus.Optimal_omissions.protocol_buffered cfg in
  let proto : Sim.Protocol_intf.buffered =
    (module struct
      include P

      let msg_bits m =
        incr calls;
        P.msg_bits m
    end)
  in
  let o =
    Sim.Engine.run proto cfg ~adversary:(Adversary.vote_splitter ())
      ~inputs:(Array.init n (fun i -> i mod 2))
  in
  Alcotest.(check bool) "decided" true (o.Sim.Engine.decided_round <> None);
  let per_msg = float_of_int !calls /. float_of_int o.Sim.Engine.messages_sent in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f msg_bits calls per message sent <= 0.1" per_msg)
    true (per_msg <= 0.1)

let test_input_validation () =
  let cfg = cfg () in
  Alcotest.(check bool) "wrong input length rejected" true
    (try
       ignore
         (Sim.Engine.run (module Echo) cfg ~adversary:Sim.Adversary_intf.none
            ~inputs:(Array.make 3 0));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-bit input rejected" true
    (try
       ignore
         (Sim.Engine.run (module Echo) cfg ~adversary:Sim.Adversary_intf.none
            ~inputs:(Array.make 8 2));
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "full delivery and accounting" `Quick test_full_delivery;
    Alcotest.test_case "a traced drop run raises at its first illegal dst"
      `Quick test_illegal_drop_run_traced;
    Alcotest.test_case "instance forces no minor collection" `Quick
      test_instance_no_forced_minor;
    Alcotest.test_case "warmed run forces no minor collection" `Quick
      test_run_no_forced_minor;
    Alcotest.test_case "coin draws allocate nothing" `Quick
      test_coin_draws_allocate_nothing;
    Alcotest.test_case "verdict walk refuses Mailbox.Stop" `Quick
      test_verdict_walk_refuses_stop;
    Alcotest.test_case "randomness accounting" `Quick test_randomness_accounting;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "determinism is bit-identical under adversary" `Quick
      test_determinism_bit_identical;
    Alcotest.test_case "crash omits forever" `Quick test_crash_omits;
    Alcotest.test_case "illegal omission rejected" `Quick
      test_illegal_omission_rejected;
    Alcotest.test_case "fault budget enforced" `Quick test_budget_enforced;
    Alcotest.test_case "incoming omissions at faulty dst" `Quick
      test_faulty_omission_allowed;
    Alcotest.test_case "inbox sorted by sender" `Quick
      test_inbox_sorted_by_sender;
    Alcotest.test_case "max_rounds cap" `Quick test_max_rounds_cap;
    Alcotest.test_case "stop hook halts with counters" `Quick test_stop_hook;
    Alcotest.test_case "decision beats stop hook" `Quick
      test_stop_not_consulted_after_decision;
    Alcotest.test_case "out-of-range corruption rejected" `Quick
      test_out_of_range_corruption_rejected;
    Alcotest.test_case "exact budget boundary allowed" `Quick
      test_exact_budget_boundary_allowed;
    Alcotest.test_case "re-corruption consumes no budget" `Quick
      test_recorruption_is_free;
    Alcotest.test_case "adversary view contents" `Quick test_view_contents;
    Alcotest.test_case "pending-message walk = Send stream" `Quick
      test_walk_is_send_stream;
    Alcotest.test_case "general route asks in emission order" `Quick
      test_general_route_emission_order;
    Alcotest.test_case "general route delivers broadcasts via the table" `Quick
      test_general_route_table;
    Alcotest.test_case "link losses are not omissions" `Quick
      test_link_losses_not_omissions;
    Alcotest.test_case "instance keeps no run's sink alive" `Quick
      test_instance_releases_sink;
    Alcotest.test_case "outcome helpers" `Quick test_agreed_decision_helpers;
    Alcotest.test_case "outcome helper edge cases" `Quick
      test_outcome_helper_edges;
    Alcotest.test_case "instance construction is O(n) at n=4096" `Quick
      test_instance_construction_linear;
    Alcotest.test_case "input validation" `Quick test_input_validation;
    Alcotest.test_case "compiled illegal omission = general route" `Quick
      test_compiled_illegal_matches_general;
    Alcotest.test_case "optimal n=96 allocates <= 8 words per message" `Quick
      test_alg1_allocation_per_message;
    Alcotest.test_case "optimal n=96 prices once per shared record" `Quick
      test_alg1_pricing_per_record;
  ]
