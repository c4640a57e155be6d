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
  (* the adversary sees candidates, coin usage, and envelopes *)
  let seen_coin = ref false and seen_envelopes = ref false in
  let adversary =
    {
      Sim.Adversary_intf.name = "observer";
      create =
        (fun _ _ view ->
          if view.Sim.View.obs.(0).used_randomness then seen_coin := true;
          let envelopes = Sim.View.envelopes view in
          if Array.length envelopes > 0 then begin
            seen_envelopes := true;
            Array.iter
              (fun e ->
                if e.Sim.View.hint = None then
                  failwith "echo messages carry hints")
              envelopes
          end;
          Sim.View.no_op);
    }
  in
  let (_ : Sim.Engine.outcome) = run ~adversary () in
  Alcotest.(check bool) "coin visible" true !seen_coin;
  Alcotest.(check bool) "envelopes visible" true !seen_envelopes

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
    Alcotest.test_case "outcome helpers" `Quick test_agreed_decision_helpers;
    Alcotest.test_case "outcome helper edge cases" `Quick
      test_outcome_helper_edges;
    Alcotest.test_case "instance construction is O(n) at n=4096" `Quick
      test_instance_construction_linear;
    Alcotest.test_case "input validation" `Quick test_input_validation;
  ]
