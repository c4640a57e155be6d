(* Component-level tests of the Algorithm 1 voting core (Consensus.Core):
   driving the epochs directly over a controllable network to check the
   paper's building-block lemmas on real executions:
   - Lemma 1: every operative process contributes to every other operative
     process's group counts;
   - Lemmas 6/8: every operative process learns every group's counts during
     spreading;
   - the quorum rules that turn under-connected processes inoperative. *)

module Core = Consensus.Core

(* A list-backed inbox iterator, for driving the core without an engine. *)
let iter inbox f = List.iter (fun (src, m) -> f src m) inbox

let make_shared m =
  Core.make_shared ~lo:0 ~m ~seed:42
    ~params:Consensus.Params.default ~t_max:(max 1 (m / 31)) ()

(* Step every member through slots 1..[upto] over a network where
   [omit ~slot ~src ~dst] drops messages. Returns the states, the inboxes
   of slot [upto + 1] and the random source. *)
let run_slots ?(omit = fun ~slot:_ ~src:_ ~dst:_ -> false) sh ~inputs ~upto =
  let m = sh.Core.m in
  let sts = Array.init m (fun pid -> Core.create sh ~pid ~input:(inputs pid)) in
  let inboxes = Array.make m [] in
  let rand = Sim.Rand.create ~seed:5L () in
  for slot = 1 to upto do
    let next = Array.make m [] in
    Array.iteri
      (fun pid st ->
        let out = ref [] in
        let emit dst m = out := (dst, m) :: !out in
        Core.step_into st ~slot ~iter:(iter inboxes.(pid)) ~rand ~wrap:Fun.id
          ~emit ~emit_all:(Sim.Protocol_intf.emit_all_pointwise emit);
        List.iter
          (fun (dst, msg) ->
            if not (omit ~slot ~src:pid ~dst) then
              next.(dst) <- (pid, msg) :: next.(dst))
          (List.rev !out))
      sts;
    Array.iteri
      (fun i l -> inboxes.(i) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
      next
  done;
  (sts, inboxes, rand)

(* Run the full core schedule (epochs + Bcast) and finalize. *)
let drive ?omit ~m ~inputs () =
  let sh = make_shared m in
  let sts, inboxes, _ = run_slots ?omit sh ~inputs ~upto:(Core.rounds sh) in
  Array.iteri
    (fun pid st -> Core.finalize_into st ~iter:(iter inboxes.(pid)))
    sts;
  (sh, sts)

let test_clean_run_decides () =
  let m = 36 in
  let _, sts = drive ~m ~inputs:(fun i -> i mod 2) () in
  Array.iter
    (fun st ->
      Alcotest.(check bool) "operative" true (Core.operative st);
      Alcotest.(check bool) "decided flag armed" true (Core.decided_flag st))
    sts;
  (* all line-16 decisions agree *)
  let d0 = Core.line16_decision sts.(0) in
  Alcotest.(check bool) "decision exists" true (d0 <> None);
  Array.iter
    (fun st ->
      Alcotest.(check (option int)) "same decision" d0 (Core.line16_decision st))
    sts

let test_unanimous_validity () =
  List.iter
    (fun b ->
      let m = 25 in
      let _, sts = drive ~m ~inputs:(fun _ -> b) () in
      Array.iter
        (fun st ->
          Alcotest.(check (option int)) "validity" (Some b)
            (Core.line16_decision st))
        sts)
    [ 0; 1 ]

let test_lemma1_contribution () =
  (* clean network, minority of ones: operative counts must be exact, i.e.
     every process's bit is counted by every other — observable through the
     deterministic all-set-0 outcome when ones < 15/30 *)
  let m = 49 in
  let ones = 16 in
  (* 16/49 < 1/2 *)
  let _, sts = drive ~m ~inputs:(fun i -> if i < ones then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "exact counting forces 0" 0 (Core.candidate st))
    sts

let test_lemma1_exact_majority () =
  (* > 18/30 of ones forces 1 everywhere: again needs exact counting *)
  let m = 49 in
  let ones = 31 in
  (* 31/49 > 0.6 *)
  let _, sts = drive ~m ~inputs:(fun i -> if i < ones then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "exact counting forces 1" 1 (Core.candidate st))
    sts

let test_quorum_kill_one_group () =
  (* silence all intra-group traffic of more than half of group 0: the
     whole group must become inoperative, everyone else must stay
     operative and still decide *)
  let m = 49 in
  let g0_lo, g0_hi = Groups.group (Groups.sqrt_partition m) 0 in
  let silenced = List.init (((g0_hi - g0_lo) / 2) + 1) (( + ) g0_lo) in
  let in_g0 pid = pid >= g0_lo && pid < g0_hi in
  let omit ~slot:_ ~src ~dst =
    (List.mem src silenced && in_g0 dst) || (List.mem dst silenced && in_g0 src)
  in
  let _, sts = drive ~omit ~m ~inputs:(fun i -> i mod 2) () in
  Array.iteri
    (fun pid st ->
      if in_g0 pid then
        Alcotest.(check bool)
          (Printf.sprintf "group-0 member %d inoperative" pid)
          false (Core.operative st)
      else
        Alcotest.(check bool)
          (Printf.sprintf "outsider %d operative" pid)
          true (Core.operative st))
    sts;
  (* outsiders still reach a common decision *)
  let d =
    Array.to_list sts
    |> List.filteri (fun pid _ -> not (in_g0 pid))
    |> List.map Core.line16_decision
  in
  match d with
  | first :: rest ->
      Alcotest.(check bool) "outsiders decided" true (first <> None);
      List.iter
        (fun x -> Alcotest.(check (option int)) "outsiders agree" first x)
        rest
  | [] -> assert false

let test_spreading_completeness () =
  (* Lemma 8 flavor: with nobody silenced, the biased-majority outcome
     reflects *global* counts, which requires every group's counts to reach
     every process — checked by an input layout where one group is all-ones
     but the global fraction is below half: if a process only saw its own
     group it would choose 1, globally it must choose 0 *)
  let m = 49 in
  let g0_lo, g0_hi = Groups.group (Groups.sqrt_partition m) 0 in
  let in_g0 pid = pid >= g0_lo && pid < g0_hi in
  (* group 0 all ones; everyone else zero: global ones = |g0| = 7/49 < 1/2 *)
  let _, sts = drive ~m ~inputs:(fun i -> if in_g0 i then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "global counts dominate" 0 (Core.candidate st))
    sts

let test_inoperative_idles () =
  (* a process whose entire neighborhood omits its traffic must become
     inoperative but still pick up the final decision broadcast *)
  let m = 49 in
  let victim = 11 in
  let omit ~slot:_ ~src ~dst =
    (* cut everything except the Bcast-slot decision traffic; the Bcast slot
       is the last one, identifiable by leaving Final messages through —
       here we simply cut only the victim's incoming/outgoing *non-final*
       slots: approximate by slot number below the last *)
    src = victim || dst = victim
  in
  (* cut all but the last slot *)
  let sh =
    Core.make_shared ~lo:0 ~m ~seed:42 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let last = Core.rounds sh in
  let omit ~slot ~src ~dst = slot < last && omit ~slot ~src ~dst in
  let _, sts = drive ~omit ~m ~inputs:(fun i -> i mod 2) () in
  Alcotest.(check bool) "victim inoperative" false (Core.operative sts.(victim));
  Alcotest.(check bool) "victim got the decision" true
    (Core.got_decision sts.(victim));
  Alcotest.(check bool) "victim decides at line 16" true
    (Core.line16_decision sts.(victim) <> None)

let test_singleton_core () =
  let _, sts = drive ~m:1 ~inputs:(fun _ -> 1) () in
  Alcotest.(check (option int)) "singleton decides own input" (Some 1)
    (Core.line16_decision sts.(0))

let test_two_member_core () =
  let _, sts = drive ~m:2 ~inputs:(fun _ -> 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check (option int)) "pair decides" (Some 0)
        (Core.line16_decision st))
    sts

let test_set_candidate () =
  let sh =
    Core.make_shared ~lo:0 ~m:4 ~seed:1 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let st = Core.create sh ~pid:0 ~input:0 in
  Core.set_candidate st 1;
  Alcotest.(check int) "candidate overridden" 1 (Core.candidate st);
  Alcotest.check_raises "non-bit rejected"
    (Invalid_argument "Core.set_candidate: bit expected") (fun () ->
      Core.set_candidate st 2)

(* An instance over [lo, lo+m) with lo > 0, as Algorithm 4's later
   super-processes run: the pid just below the range, the one just past it
   and a negative pid must all read as non-members rather than alias a
   local index. *)
let test_non_members () =
  let lo = 5 and m = 4 in
  let sh =
    Core.make_shared ~lo ~m ~seed:1 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let st = Core.create sh ~pid:7 ~input:1 in
  for i = 0 to m - 1 do
    Alcotest.(check (option int)) "member" (Some i)
      (Core.local_of st (lo + i))
  done;
  List.iter
    (fun pid ->
      Alcotest.check_raises
        (Printf.sprintf "create pid %d" pid)
        (Invalid_argument "Core.create: pid not a member")
        (fun () -> ignore (Core.create sh ~pid ~input:0));
      Alcotest.(check (option int))
        (Printf.sprintf "local_of %d" pid)
        None (Core.local_of st pid))
    [ lo - 1; lo + m; -1 ]

(* The line-15 adoption reads [Final] from members only. A fresh member
   of an instance over [5, 9) is operative with its decided flag unarmed,
   so it adopts the first member's [Final] and ignores the pids just
   outside the range. *)
let test_final_from_members_only () =
  let lo = 5 and m = 4 in
  let sh =
    Core.make_shared ~lo ~m ~seed:1 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let fresh () = Core.create sh ~pid:6 ~input:0 in
  let st = fresh () in
  Core.finalize_into st
    ~iter:(iter [ (lo - 1, Core.Final 1); (lo + m, Core.Final 1) ]);
  Alcotest.(check bool) "non-members adopt nothing" false
    (Core.got_decision st);
  Alcotest.(check int) "candidate unchanged" 0 (Core.candidate st);
  let st = fresh () in
  Core.finalize_into st
    ~iter:(iter [ (lo + m, Core.Final 1); (lo + m - 1, Core.Final 1) ]);
  Alcotest.(check bool) "member's Final adopted" true (Core.got_decision st);
  Alcotest.(check int) "candidate is the member's value" 1
    (Core.candidate st)

let test_msg_bits () =
  let sh =
    Core.make_shared ~lo:0 ~m:16 ~seed:1 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let c = { Core.ones = 3; zeros = 2 } in
  List.iter
    (fun m ->
      Alcotest.(check bool) "positive bits" true (Core.msg_bits sh m > 0))
    [
      Core.Counts { stage = 1; bag = 0; c };
      Core.Confirm { stage = 1 };
      Core.Result { stage = 1; left = Some c; right = None };
      Core.Spread_delta [ (0, c); (1, c) ];
      Core.Final 1;
    ];
  (* spreading deltas are charged per entry *)
  Alcotest.(check bool) "delta grows with entries" true
    (Core.msg_bits sh (Core.Spread_delta [ (0, c); (1, c) ])
    > Core.msg_bits sh (Core.Spread_delta [ (0, c) ]));
  Alcotest.(check (option int)) "final hint" (Some 1)
    (Core.msg_hint (Core.Final 1));
  Alcotest.(check (option int)) "counts carry no hint" None
    (Core.msg_hint (Core.Counts { stage = 1; bag = 0; c }));
  (* the widths [make_shared] precomputes price every kind exactly as
     the per-message computation did *)
  let log2_ceil = Consensus.Params.log2_ceil in
  List.iter
    (fun m ->
      let sh =
        Core.make_shared ~lo:0 ~m ~seed:1 ~params:Consensus.Params.default
          ~t_max:1 ()
      in
      let b_count = log2_ceil (sh.Core.part.Groups.group_size + 1) in
      let b_stage = log2_ceil (sh.Core.stages + 1) in
      let b_group = log2_ceil (Groups.group_count sh.Core.part + 1) in
      List.iter
        (fun (msg, bits) ->
          Alcotest.(check int) "exact price" bits (Core.msg_bits sh msg))
        [
          (Core.Counts { stage = 1; bag = 0; c }, 3 + b_stage + (3 * b_count));
          (Core.Confirm { stage = 1 }, 3 + b_stage);
          (Core.Result { stage = 1; left = None; right = None },
           5 + b_stage + (4 * b_count));
          (Core.Spread_delta [ (0, c); (1, c); (2, c) ],
           3 + (3 * (b_group + (2 * b_count))));
          (Core.Spread_delta [], 3);
          (Core.Final 0, 4);
        ])
    [ 1; 2; 16; 96; 300 ]

(* The spreading receive finds each sender in the neighbour array with a
   forward cursor, relying on the inbox being sorted by sender; sources
   out of order, repeated or outside the neighbourhood must still land
   where the binary search puts them. Drive a clean network to the first
   spreading slot, then hand one process heartbeats from a subset [s] of
   its neighbours (every other one, enough to stay operative) in
   ascending, descending and shuffled order, each time with one sender
   repeated, one member that is not a neighbour and one pid outside the
   instance. Its next emission must go to exactly [s]. The same senders
   go straight into a [Links.t] of that process at a pid offset, as an
   instance over [lo, lo+m) with lo > 0 builds it: [hear] must accept
   exactly [s], and [emit_live] must reach [s] in descending order, also
   after a second slot in which every neighbour speaks. *)
let test_spread_lookup_order () =
  let m = 96 and target = 5 in
  let sh = make_shared m in
  let g = Option.get sh.Core.graph in
  let first_spread =
    let k = ref 0 in
    while sh.Core.schedule.(!k) <> Core.Spread 1 do
      incr k
    done;
    !k + 1
  in
  let nbrs = Expander.neighbors g target |> Array.to_list in
  let s = List.filteri (fun i _ -> i mod 2 = 0) nbrs in
  let stranger =
    List.find
      (fun q -> q <> target && not (List.mem q nbrs))
      (List.init m Fun.id)
  in
  let senders order =
    let srcs = order s in
    let dup = List.nth srcs (List.length srcs / 2) in
    List.concat_map
      (fun q -> if q = dup then [ q; q; stranger ] else [ q ])
      srcs
    @ [ m + 3 ]
  in
  let emitted order =
    let sts, _, rand =
      run_slots sh ~inputs:(fun pid -> pid mod 2) ~upto:first_spread
    in
    let inbox = List.map (fun q -> (q, Core.Spread_delta [])) (senders order) in
    let out = ref [] in
    let emit dst _ = out := dst :: !out in
    Core.step_into sts.(target) ~slot:(first_spread + 1) ~iter:(iter inbox)
      ~rand ~wrap:Fun.id ~emit
      ~emit_all:(Sim.Protocol_intf.emit_all_pointwise emit);
    Alcotest.(check bool) "still operative" true (Core.operative sts.(target));
    List.sort compare !out
  in
  let offset = 40 in
  let pid u = u + offset in
  let linked order =
    let l = Consensus.Links.create ~offset g target in
    let slot srcs =
      Consensus.Links.start l;
      let heard =
        List.filter (fun q -> Consensus.Links.hear l (pid q)) srcs
      in
      Alcotest.(check bool) "keeps the status" true (Consensus.Links.close l);
      Alcotest.(check (list int)) "hears the live senders" s
        (List.sort_uniq compare heard);
      let out = ref [] in
      Consensus.Links.emit_live l (fun dst () -> out := dst :: !out) ();
      Alcotest.(check (list int)) "emits to the live links, descending"
        (List.map pid s) !out
    in
    slot (senders order);
    slot nbrs
  in
  let shuffle l =
    let a = Array.of_list l in
    let rng = Random.State.make [| 11 |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  in
  List.iter
    (fun (what, order) ->
      Alcotest.(check (list int)) (what ^ ": emits to the senders heard") s
        (emitted order);
      linked order)
    [ ("ascending", Fun.id); ("descending", List.rev); ("shuffled", shuffle) ]

(* The loop form of [Params.log2_ceil] against its former recursive
   definition, including the [n <= 1] branch. *)
let test_log2_ceil_reference () =
  let reference n =
    if n <= 1 then 1
    else
      let rec go acc cap = if cap >= n then acc else go (acc + 1) (cap * 2) in
      go 0 1
  in
  for n = -3 to 70_000 do
    if Consensus.Params.log2_ceil n <> reference n then
      Alcotest.failf "log2_ceil %d = %d, reference %d" n
        (Consensus.Params.log2_ceil n) (reference n)
  done

(* [schedule_length] sizes a schedule without building the instance:
   it must equal [rounds] of the built one, and the built schedule must
   be the reference layout — per epoch, stages x (A, B, C) then the
   spreading rounds — with the broadcast slot last. Every m in 1..300
   under two t values; the [Params] values take turns over m, since each
   [make_shared] builds an expander. *)
let test_schedule_length () =
  let module P = Consensus.Params in
  let params =
    [|
      P.default;
      { P.default with P.spread_c = 3 };
      { P.default with P.epochs = P.Fixed 2 };
      { P.default with P.epochs = P.Auto 0.4 };
    |]
  in
  let reference (sh : Core.shared) =
    let slots = ref [ Core.Bcast ] in
    for _ = 1 to sh.Core.epochs do
      for k = sh.Core.spread_rounds downto 1 do
        slots := Core.Spread k :: !slots
      done;
      for s = sh.Core.stages downto 1 do
        slots := Core.Agg_a s :: Core.Agg_b s :: Core.Agg_c s :: !slots
      done
    done;
    Array.of_list !slots
  in
  for m = 1 to 300 do
    let params = params.(m mod Array.length params) in
    List.iter
      (fun t_max ->
        let sh =
          Core.make_shared ~lo:0 ~m ~seed:m ~params ~t_max ()
        in
        let len = Core.schedule_length ~params ~t_max m in
        if len <> Core.rounds sh || sh.Core.schedule <> reference sh then
          Alcotest.failf "m = %d, t_max = %d: %d vs %d rounds" m t_max len
            (Core.rounds sh))
      [ 1; max 1 (m / 3) ]
  done

let suite =
  [
    Alcotest.test_case "clean run decides" `Quick test_clean_run_decides;
    Alcotest.test_case "unanimous validity" `Quick test_unanimous_validity;
    Alcotest.test_case "Lemma 1: exact minority counting" `Quick
      test_lemma1_contribution;
    Alcotest.test_case "Lemma 1: exact majority counting" `Quick
      test_lemma1_exact_majority;
    Alcotest.test_case "quorum kills an isolated group" `Quick
      test_quorum_kill_one_group;
    Alcotest.test_case "Lemma 8: spreading completeness" `Quick
      test_spreading_completeness;
    Alcotest.test_case "inoperative process still decides" `Quick
      test_inoperative_idles;
    Alcotest.test_case "singleton core" `Quick test_singleton_core;
    Alcotest.test_case "two-member core" `Quick test_two_member_core;
    Alcotest.test_case "set_candidate" `Quick test_set_candidate;
    Alcotest.test_case "non-members rejected" `Quick test_non_members;
    Alcotest.test_case "Final adopted from members only" `Quick
      test_final_from_members_only;
    Alcotest.test_case "spreading lookup in any sender order" `Quick
      test_spread_lookup_order;
    Alcotest.test_case "message bits" `Quick test_msg_bits;
    Alcotest.test_case "log2_ceil = recursive reference" `Quick
      test_log2_ceil_reference;
    Alcotest.test_case "schedule_length = rounds of make_shared" `Quick
      test_schedule_length;
  ]
