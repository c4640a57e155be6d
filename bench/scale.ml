(* Scale sweep: the broadcast-native fast path against the classic
   pointwise path at n up to 4096.

   Two record kinds go to the JSON sink:

   - kind="scale": deterministic run facts (rounds, messages, bits,
     omissions, decision round) with NO path field. Both delivery paths
     are bit-identical by construction (test/test_engine_equiv.ml), and
     every point that runs both asserts their outcomes equal.
   - kind="scale-throughput": rounds_per_sec and ns_per_message per
     path. Machine-dependent, so omitted in stable mode — like the
     micro-engine experiment's throughput rows, logged but never part
     of a baseline diff. bench/perf_gate.ml picks these up when present
     and enforces the fast/classic headline ratio.

   The classic column reproduces the cost model of the buffered engine
   before the broadcast port: every broadcast re-expanded into n-1
   pointwise outbox rows ({!Sim.Protocol_intf.pointwise_emission}),
   masks decoded into a predicate by {!Adversary.pointwise} so delivery
   asks for a verdict per message, and an adversary that walks the
   pending messages each round, as the old engine did unconditionally.
   The fast column is the same instance with broadcast segments and
   masks, untraced: the engine takes the mask route, delivers wide
   broadcasts through the round-shared table and never walks the
   pending messages. Outcomes are asserted equal. *)

open Bench_util

let timed inst ~adversary ~inputs =
  let t0 = Unix.gettimeofday () in
  let o = Sim.Engine.run_instance inst ~adversary ~inputs in
  (o, Unix.gettimeofday () -. t0)

(* [a], walking the round's pending messages before it plans *)
let reading (a : Sim.Adversary_intf.t) =
  {
    a with
    create =
      (fun cfg rand ->
        let plan = a.create cfg rand in
        fun view ->
          view.Sim.View.iter_envelopes (fun _ _ _ _ -> ());
          plan view);
  }

let emit_throughput ~protocol ~path ~n (o : Sim.Engine.outcome) wall =
  if not (Out.is_stable ()) then
    Out.emit ~kind:"scale-throughput"
      [
        ("protocol", Out.S protocol);
        ("path", Out.S path);
        ("n", Out.I n);
        ("rounds_per_sec", Out.F (float_of_int o.rounds_total /. wall));
        ( "ns_per_message",
          Out.F (wall *. 1e9 /. float_of_int (max 1 o.messages_sent)) );
      ]

let emit_scale ~protocol ~n ~t (o : Sim.Engine.outcome) =
  Out.emit ~kind:"scale"
    [
      ("protocol", Out.S protocol);
      ("n", Out.I n);
      ("t", Out.I t);
      ("rounds", Out.I o.rounds_total);
      ( "decided_round",
        Out.I (match o.decided_round with Some r -> r | None -> -1) );
      ("msgs", Out.I o.messages_sent);
      ("bits", Out.I o.bits_sent);
      ("omitted", Out.I o.messages_omitted);
      ("faults_used", Out.I o.faults_used);
    ]

(* One (registry protocol, n) point. The adversary strategy is rebuilt per run:
   strategies close over mutable per-run state (crash schedules tick),
   and the classic run must not see the fast run's leftovers.

   [classic_cap] bounds the n above which the sweep skips the classic
   column: optimal-omissions' fast/classic ratio is already measured at
   n = 512 and 1024 (1.4-1.7x), and the classic twins above that would
   add the sweep's longest runs without changing the reading. *)
let case ~protocol ~adversary ~t ~max_rounds ?(classic_cap = max_int) n =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed:1 ~max_rounds () in
  let buffered = registry_build protocol in
  let inputs = Array.init n (fun i -> i mod 2) in
  let ((o, fast_wall) as fast) =
    let inst = Sim.Engine.instance (buffered cfg) cfg in
    timed inst ~adversary:(adversary ()) ~inputs
  in
  let classic =
    if n > classic_cap then None
    else
      let inst =
        Sim.Engine.instance
          (Sim.Protocol_intf.pointwise_emission (buffered cfg))
          cfg
      in
      Some
        (timed inst
           ~adversary:(reading (Adversary.pointwise (adversary ())))
           ~inputs)
  in
  (match classic with
  | Some (oc, _) when o <> oc ->
      failwith
        (Printf.sprintf "scale: %s n=%d: fast and classic outcomes differ"
           protocol n)
  | _ -> ());
  (match
     (if o.decided_round = None then
        [ ("termination", "a non-faulty process never decided") ]
      else [])
     @ Supervise.Oracle.violations Consensus cfg ~inputs o
   with
  | [] -> ()
  | (property, detail) :: _ ->
      failwith
        (Printf.sprintf "scale: %s n=%d violated %s: %s" protocol n property
           detail));
  emit_scale ~protocol ~n ~t o;
  emit_throughput ~protocol ~path:"fast" ~n o fast_wall;
  Option.iter
    (fun (o, w) -> emit_throughput ~protocol ~path:"classic" ~n o w)
    classic;
  let rps ((o : Sim.Engine.outcome), w) = float_of_int o.rounds_total /. w in
  match classic with
  | Some c ->
      row "%-10s n=%-5d t=%-3d %8d rnds %12d msgs %10.1f rps fast %10.1f rps classic (%.1fx)\n"
        protocol n t o.rounds_total o.messages_sent (rps fast) (rps c)
        (rps fast /. rps c)
  | None ->
      row "%-10s n=%-5d t=%-3d %8d rnds %12d msgs %10.1f rps fast only\n"
        protocol n t o.rounds_total o.messages_sent (rps fast)

let scale ~quick () =
  section "Scale: broadcast fast path vs pointwise classic path";
  let ns = if quick then [ 512; 1024 ] else [ 512; 1024; 2048; 4096 ] in
  List.iter
    (fun n ->
      case n ~protocol:"flood" ~t:8 ~max_rounds:20
        ~adversary:(fun () ->
          Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]); (3, [ 2 ]) ]))
    ns;
  (* t = 0 keeps Dolev-Strong's relay chains out of the O(n^3) regime —
     the sweep measures delivery throughput, not chain bookkeeping *)
  List.iter
    (fun n ->
      case n ~protocol:"dolev-strong" ~t:0 ~max_rounds:10
        ~adversary:(fun () -> Sim.Adversary_intf.none))
    ns;
  List.iter
    (fun n ->
      let cfg0 = Sim.Config.make ~n ~t_max:2 ~seed:1 () in
      let max_rounds = Consensus.Optimal_omissions.rounds_needed cfg0 + 10 in
      case n ~protocol:"optimal" ~t:2 ~max_rounds ~classic_cap:1024
        ~adversary:(fun () ->
          Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]) ]))
    ns
