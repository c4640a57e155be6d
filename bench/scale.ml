(* Scale sweep: the broadcast-native fast path against the classic
   pointwise path at n up to 4096.

   Two record kinds go to the JSON sink:

   - kind="scale": deterministic run facts (rounds, messages, bits,
     omissions, decision round) with NO path field. Both delivery paths
     are bit-identical by construction (test/test_engine_equiv.ml), so
     these rows do not depend on --scale-path: CI runs the sweep once
     per path with --stable-json and diffs the files byte-for-byte.
   - kind="scale-throughput": rounds_per_sec and ns_per_message per
     path. Machine-dependent, so omitted in stable mode — like the
     micro-engine experiment's throughput rows, logged but never part
     of a baseline diff. bench/perf_gate.ml picks these up when present
     and enforces the fast/classic headline ratio.

   The classic column reproduces the cost model of the buffered engine
   before the broadcast port: every broadcast re-expanded into n-1
   pointwise outbox rows ({!Sim.Protocol_intf.pointwise_emission}),
   compiled masks stripped by {!Adversary.pointwise} so delivery calls
   the per-message [omit] predicate, and a no-op [on_round] hook forcing the envelope arena
   fill the old engine performed unconditionally each round. The fast
   column is the same instance with broadcast segments, masks, no hook:
   untraced, the engine takes mask-blit delivery and never materialises
   the arena. Outcomes are asserted equal. *)

open Bench_util

type path_sel = Both | Classic | Fast

let path_sel = ref Both

let set_path = function
  | "both" -> path_sel := Both
  | "classic" -> path_sel := Classic
  | "fast" -> path_sel := Fast
  | s ->
      Printf.eprintf "unknown --scale-path %S (expected both|classic|fast)\n" s;
      exit 2

let timed ?on_round inst ~adversary ~inputs =
  let t0 = Unix.gettimeofday () in
  let o = Sim.Engine.run_instance ?on_round inst ~adversary ~inputs in
  (o, Unix.gettimeofday () -. t0)

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

(* One (protocol, n) point. The adversary strategy is rebuilt per run:
   strategies close over mutable per-run state (crash schedules tick),
   and the classic run must not see the fast run's leftovers.

   [classic_cap] bounds the n above which a default (--scale-path both)
   sweep skips the classic column: optimal-omissions is dominated by its
   local step phase (the two delivery paths measure within noise of each
   other), so duplicating its quarter-hour n=4096 point buys nothing.
   An explicit --scale-path classic still runs every point, keeping the
   per-path kind="scale" row sets identical. *)
let case ~protocol ~buffered ~adversary ~t ~max_rounds ?(classic_cap = max_int)
    n =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed:1 ~max_rounds () in
  let inputs = Array.init n (fun i -> i mod 2) in
  let fast =
    match !path_sel with
    | Classic -> None
    | Both | Fast ->
        let inst = Sim.Engine.instance (buffered cfg) cfg in
        Some (timed inst ~adversary:(adversary ()) ~inputs)
  in
  let classic =
    match !path_sel with
    | Fast -> None
    | Both when n > classic_cap -> None
    | Both | Classic ->
        let inst =
          Sim.Engine.instance
            (Sim.Protocol_intf.pointwise_emission (buffered cfg))
            cfg
        in
        Some
          (timed inst
             ~on_round:(fun ~round:_ _ -> ())
             ~adversary:(Adversary.pointwise (adversary ()))
             ~inputs)
  in
  (match (fast, classic) with
  | Some (of_, _), Some (oc, _) when of_ <> oc ->
      failwith
        (Printf.sprintf "scale: %s n=%d: fast and classic outcomes differ"
           protocol n)
  | _ -> ());
  let o =
    match (fast, classic) with
    | Some (o, _), _ | None, Some (o, _) -> o
    | None, None -> assert false
  in
  if Sim.Engine.agreed_decision o = None then
    failwith (Printf.sprintf "scale: %s n=%d failed to decide" protocol n);
  emit_scale ~protocol ~n ~t o;
  Option.iter
    (fun (o, w) -> emit_throughput ~protocol ~path:"fast" ~n o w)
    fast;
  Option.iter
    (fun (o, w) -> emit_throughput ~protocol ~path:"classic" ~n o w)
    classic;
  let rps = function
    | Some ((o : Sim.Engine.outcome), w) -> float_of_int o.rounds_total /. w
    | None -> nan
  in
  match (fast, classic) with
  | Some _, Some _ ->
      row "%-10s n=%-5d t=%-3d %8d rnds %12d msgs %10.1f rps fast %10.1f rps classic (%.1fx)\n"
        protocol n t o.rounds_total o.messages_sent (rps fast) (rps classic)
        (rps fast /. rps classic)
  | _ ->
      row "%-10s n=%-5d t=%-3d %8d rnds %12d msgs %10.1f rps %s only\n"
        protocol n t o.rounds_total o.messages_sent
        (rps (if fast = None then classic else fast))
        (if fast = None then "classic" else "fast")

let scale ~quick () =
  section "Scale: broadcast fast path vs pointwise classic path";
  Printf.printf "paths: %s (--scale-path)\n"
    (match !path_sel with
    | Both -> "both"
    | Classic -> "classic"
    | Fast -> "fast");
  let ns = if quick then [ 512; 1024 ] else [ 512; 1024; 2048; 4096 ] in
  List.iter
    (fun n ->
      case n ~protocol:"flood" ~t:8 ~max_rounds:20
        ~buffered:Consensus.Flood.protocol_buffered
        ~adversary:(fun () ->
          Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]); (3, [ 2 ]) ]))
    ns;
  (* t = 0 keeps Dolev-Strong's relay chains out of the O(n^3) regime —
     the sweep measures delivery throughput, not chain bookkeeping *)
  List.iter
    (fun n ->
      case n ~protocol:"dolev-strong" ~t:0 ~max_rounds:10
        ~buffered:Consensus.Dolev_strong.protocol_buffered
        ~adversary:(fun () -> Sim.Adversary_intf.none))
    ns;
  List.iter
    (fun n ->
      let cfg0 = Sim.Config.make ~n ~t_max:2 ~seed:1 () in
      let max_rounds = Consensus.Optimal_omissions.rounds_needed cfg0 + 10 in
      case n ~protocol:"optimal" ~t:2 ~max_rounds ~classic_cap:1024
        ~buffered:(fun cfg -> Consensus.Optimal_omissions.protocol_buffered cfg)
        ~adversary:(fun () ->
          Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]) ]))
    ns
