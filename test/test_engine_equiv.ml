(* Bit-identity equivalence suite for the engine's delivery routes.

   For every protocol in the registry, across a grid of (adversary
   strategy, seed, input pattern), runs that reach the same engine state
   through genuinely different engine code must agree:

   - broadcast emission with compiled omission masks, traced, against
     pointwise emission ({!Sim.Protocol_intf.pointwise_emission}) with
     the masks stripped ({!Adversary.pointwise}), traced: the outcome and
     the JSONL trace must be byte-identical. Runs that abort with
     [Illegal_plan] (the grid deliberately includes over-budget
     strategies) must abort with the same message after the same trace
     prefix;
   - the untraced fast route (mask-blit delivery and the shared broadcast
     table) against the untraced general route (stripped masks, per-message
     predicate): outcomes equal, and equal to the traced run's;
   - one reusable {!Sim.Engine.instance} run twice: each run byte-identical
     to the fresh traced run, so cross-run buffer reuse leaks no state.

   The golden test then pins every protocol's whole grid to an MD5 digest
   written before the list-based protocol path was removed. *)

let grid_n entry = max entry.Harness.Registry.min_n 12
let grid_t entry ~n = max 1 (min 3 (entry.Harness.Registry.max_t n))

let input_patterns =
  [ ("alternating", fun i -> i mod 2); ("all-ones", fun _ -> 1) ]

let seeds = [ 1; 42 ]

let cfg_for entry ~seed =
  let n = grid_n entry in
  let t = grid_t entry ~n in
  let cfg0 = Sim.Config.make ~n ~t_max:t ~seed () in
  Sim.Config.make ~n ~t_max:t ~seed
    ~max_rounds:(Harness.Registry.rounds_bound entry cfg0)
    ()

let adversary_count = List.length (Adversary.standard_suite ~n:12)

(* Every grid cell of [entry], in grid order: [f ~ctx cfg ~adv_idx
   ~inputs]. *)
let iter_grid entry f =
  let n = grid_n entry in
  List.iter
    (fun seed ->
      let cfg = cfg_for entry ~seed in
      List.iter
        (fun (pat_name, pat) ->
          let inputs = Array.init n pat in
          for adv_idx = 0 to adversary_count - 1 do
            let ctx =
              Printf.sprintf "%s seed=%d inputs=%s adv=%d"
                entry.Harness.Registry.id seed pat_name adv_idx
            in
            f ~ctx cfg ~adv_idx ~inputs
          done)
        input_patterns)
    seeds

(* The strategy is rebuilt per run — some strategies close over mutable
   state, and sharing one across compared runs would let the first run's
   state bleed into the second. [strip] replaces it with its
   {!Adversary.pointwise} form (compiled masks removed), putting the
   engine on the per-message predicate path. *)
let adversary_for ~strip ~n ~adv_idx =
  let adversary = List.nth (Adversary.standard_suite ~n) adv_idx in
  if strip then Adversary.pointwise adversary else adversary

(* One traced run: outcome (or the Illegal_plan message) plus the trace as
   JSON lines. *)
let capture ?(strip = false) ~n ~adv_idx run =
  let adversary = adversary_for ~strip ~n ~adv_idx in
  let sink, events = Trace.Sink.memory () in
  let res =
    try Ok (run ~adversary ~trace:sink)
    with Sim.Engine.Illegal_plan m -> Error m
  in
  (res, List.map Trace.Event.to_json (events ()))

(* Untraced run: outcome only. Without a tracer the engine takes the
   mask-blit fast path whenever the plan carries compiled verdicts, so
   comparing this against the stripped (predicate-path) run is what
   actually exercises the fast path's delivery, counters and legality
   scan. *)
let capture_untraced ?(strip = false) ~n ~adv_idx run =
  let adversary = adversary_for ~strip ~n ~adv_idx in
  try Ok (run ~adversary) with Sim.Engine.Illegal_plan m -> Error m

let res_label = function Ok _ -> "Ok" | Error m -> "Illegal_plan " ^ m

let check_outcome_equal ~ctx a b =
  if a <> b then
    Alcotest.failf "%s: outcomes differ (%s vs %s)" ctx (res_label a)
      (res_label b)

let check_equal ~ctx (res_a, trace_a) (res_b, trace_b) =
  check_outcome_equal ~ctx res_a res_b;
  if trace_a <> trace_b then begin
    let rec first_diff i = function
      | a :: tl_a, b :: tl_b ->
          if a <> b then
            Alcotest.failf "%s: traces diverge at event %d:\n  %s\n  %s" ctx i
              a b
          else first_diff (i + 1) (tl_a, tl_b)
      | _ ->
          Alcotest.failf "%s: trace lengths differ (%d vs %d)" ctx
            (List.length trace_a) (List.length trace_b)
    in
    first_diff 0 (trace_a, trace_b)
  end

(* The reference run of a cell: broadcast emission, compiled masks,
   traced. *)
let reference entry cfg ~adv_idx ~inputs =
  capture ~n:cfg.Sim.Config.n ~adv_idx (fun ~adversary ~trace ->
      Sim.Engine.run ~trace (Harness.Registry.build entry cfg) cfg ~adversary
        ~inputs)

let test_entry entry () =
  let n = grid_n entry in
  iter_grid entry (fun ~ctx cfg ~adv_idx ~inputs ->
      let build () = Harness.Registry.build entry cfg in
      let reference = reference entry cfg ~adv_idx ~inputs in
      let pointwise =
        capture ~strip:true ~n ~adv_idx (fun ~adversary ~trace ->
            Sim.Engine.run ~trace
              (Sim.Protocol_intf.pointwise_emission (build ()))
              cfg ~adversary ~inputs)
      in
      check_equal
        ~ctx:(ctx ^ " [broadcast+mask vs pointwise+predicate]")
        reference pointwise;
      let fast =
        capture_untraced ~n ~adv_idx (fun ~adversary ->
            Sim.Engine.run (build ()) cfg ~adversary ~inputs)
      in
      let general =
        capture_untraced ~strip:true ~n ~adv_idx (fun ~adversary ->
            Sim.Engine.run (build ()) cfg ~adversary ~inputs)
      in
      check_outcome_equal ~ctx:(ctx ^ " [fast vs general]") fast general;
      (* tracing must not perturb the run: the untraced fast-route outcome
         equals the traced one, Illegal_plan message included *)
      check_outcome_equal ~ctx:(ctx ^ " [fast vs traced]") (fst reference)
        fast;
      let inst = Sim.Engine.instance (build ()) cfg in
      let via_instance () =
        capture ~n ~adv_idx (fun ~adversary ~trace ->
            Sim.Engine.run_instance ~trace inst ~adversary ~inputs)
      in
      check_equal ~ctx:(ctx ^ " [instance run 1]") reference (via_instance ());
      check_equal ~ctx:(ctx ^ " [instance run 2]") reference (via_instance ()))

(* Golden oracle: the MD5 of each protocol's whole grid — every outcome
   (or [Illegal_plan] message) followed by its full JSONL trace, in grid
   order — pinned in [golden/registry_digests.txt]. The digests were
   written by the list-based protocol path before it was removed, so they
   hold today's engine to what an independent implementation produced. *)
let golden_file = "golden/registry_digests.txt"

let grid_digest entry =
  let buf = Buffer.create 4096 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  iter_grid entry (fun ~ctx:_ cfg ~adv_idx ~inputs ->
      let res, trace = reference entry cfg ~adv_idx ~inputs in
      line
        (match res with
        | Ok o -> Supervise.Cached.outcome_to_string o
        | Error m -> "Illegal_plan " ^ m);
      List.iter line trace);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden () =
  let expected = In_channel.with_open_text golden_file In_channel.input_all in
  let actual =
    String.concat ""
      (List.map
         (fun e -> Printf.sprintf "%s %s\n" e.Harness.Registry.id (grid_digest e))
         Harness.Registry.all)
  in
  if actual <> expected then
    Alcotest.failf "grid digests differ from %s; computed:\n%s" golden_file
      actual

let suite =
  List.map
    (fun entry ->
      Alcotest.test_case
        (Printf.sprintf "%s: buffered path bit-identical across routes"
           entry.Harness.Registry.id)
        `Quick (test_entry entry))
    Harness.Registry.all
  @ [ Alcotest.test_case "registry grids match golden digests" `Quick test_golden ]
