(* Bit-identity equivalence suite for the engine's delivery routes.

   For every protocol in the registry, across a grid of (adversary
   strategy, seed, input pattern), runs that reach the same engine state
   through genuinely different engine code must agree:

   - broadcast emission with per-sender omission masks (the mask route),
     traced, against pointwise emission
     ({!Sim.Protocol_intf.pointwise_emission}) with the masks decoded to a
     predicate ({!Adversary.pointwise}, the general route), traced: the
     outcome and the JSONL trace must be byte-identical. Runs that abort
     with [Illegal_plan] (the grid deliberately includes over-budget
     strategies) must abort with the same message after the same trace
     prefix;
   - the untraced mask route (per-sender masks) against the untraced
     general route (decoded masks, per-message predicate): outcomes
     equal, and equal to the traced run's;
   - one reusable {!Sim.Engine.instance} run twice: each run byte-identical
     to the fresh traced run, so cross-run buffer reuse leaks no state;
   - a round-level sink ({!Trace.Sink.rounds}): its stream must be
     byte-identical to the traced reference's filtered to round-level
     events, and each reference [Round_end] must total that round's
     [Send] events.

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
   {!Adversary.pointwise} form (masks decoded to a predicate), putting the
   engine on the per-message predicate path. *)
let adversary_for ~strip ~n ~adv_idx =
  let adversary =
    Adversary.resolve (List.nth (Adversary.standard_suite ~n) adv_idx)
  in
  if strip then Adversary.pointwise adversary else adversary

(* One traced run: outcome (or the Illegal_plan message) plus the trace.
   [rounds] records through a round-level sink. *)
let capture ?(strip = false) ?(rounds = false) ~n ~adv_idx run =
  let adversary = adversary_for ~strip ~n ~adv_idx in
  let sink, events = Trace.Sink.memory () in
  let sink = if rounds then Trace.Sink.rounds sink else sink in
  let res =
    try Ok (run ~adversary ~trace:sink)
    with Sim.Engine.Illegal_plan m -> Error m
  in
  (res, events ())

(* Untraced run: outcome only. The engine takes the mask route whenever
   the plan gives per-sender masks, traced or not; untraced, it runs
   the route's delivery, counters and legality scan with no event walk
   beside them, against the stripped (predicate-route) run. *)
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
  let trace_a = List.map Trace.Event.to_json trace_a
  and trace_b = List.map Trace.Event.to_json trace_b in
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

(* Each [Round_end] carries the message count and bit sum of the round's
   [Send] events: what lets a round-level sink stand in for the per-message
   stream when totalling a round's traffic. *)
let check_round_totals ~ctx events =
  ignore
    (List.fold_left
       (fun (msgs, bits) (e : Trace.Event.t) ->
         match e with
         | Send { bits = b; _ } -> (msgs + 1, bits + b)
         | Round_end { round; messages; bits = b; _ } ->
             if (messages, b) <> (msgs, bits) then
               Alcotest.failf
                 "%s: round %d ends with %d messages / %d bits, its sends \
                  total %d / %d"
                 ctx round messages b msgs bits;
             (0, 0)
         | _ -> (msgs, bits))
       (0, 0) events)

(* The reference run of a cell: broadcast emission, per-sender masks,
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
      check_round_totals ~ctx:(ctx ^ " [round totals]") (snd reference);
      let round_level =
        capture ~rounds:true ~n ~adv_idx (fun ~adversary ~trace ->
            Sim.Engine.run ~trace (build ()) cfg ~adversary ~inputs)
      in
      check_equal
        ~ctx:(ctx ^ " [round-level sink vs filtered reference]")
        ( fst reference,
          List.filter
            (fun e -> not (Trace.Event.is_message e))
            (snd reference) )
        round_level;
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
      List.iter (fun e -> line (Trace.Event.to_json e)) trace);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* [file] is found next to the test executable, where the test's [deps]
   put it, so the suite passes from any working directory. It is read
   before any digest is computed: a missing file fails at once, naming
   the path it looked for. *)
let check_digests ~file line cells =
  let path = Filename.concat (Filename.dirname Sys.executable_name) file in
  let expected =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> Alcotest.failf "golden file %s unreadable: %s" path e
  in
  let actual = String.concat "" (List.map line cells) in
  if actual <> expected then
    Alcotest.failf "grid digests differ from %s; computed:\n%s" path actual

let test_golden () =
  check_digests ~file:golden_file
    (fun e -> Printf.sprintf "%s %s\n" e.Harness.Registry.id (grid_digest e))
    Harness.Registry.all

(* Sparse-expander oracle. At the grid's n = 12 the expander is complete
   (Delta = 11), so the golden grid never exercises the Core paths that
   depend on a sparse neighbourhood: neighbour positions, disregarding and
   per-group spreading deltas. These cells run the three Core-based
   protocols where Delta < m - 1 (optimal and crash-sub at n = 64 and 96;
   param-x2 at n = 128, whose super-processes have m = 64). Each line of
   [golden/core_sparse_digests.txt] pins one run: the MD5 of its JSONL
   trace, which is the file [consensus_sim run --trace-dir] writes for the
   same spec, and the MD5 of its outcome. The traces run to ~1M events, so
   they stream to a temporary file instead of memory. The digests were
   written by the hash-table Core that the flat-array one replaced. *)
let sparse_file = "golden/core_sparse_digests.txt"

let sparse_cells =
  let omission = [ "splitter"; "random"; "group"; "eclipse" ] in
  List.concat_map
    (fun (protocol, sizes, adversaries) ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun seed -> List.map (fun a -> (protocol, n, seed, a)) adversaries)
            seeds)
        sizes)
    [
      ("optimal", [ 64; 96 ], omission);
      ("crash-sub", [ 64; 96 ], omission @ [ "crash" ]);
      ("param-x2", [ 128 ], omission);
    ]

let sparse_line (protocol, n, seed, adversary) =
  let entry = Result.get_ok (Harness.Registry.find protocol) in
  let spec =
    Run_spec.make ~adversary ~protocol ~n ~t_max:(grid_t entry ~n) ~seed ()
  in
  let path = Filename.temp_file "core_sparse" ".jsonl" in
  let sink = Trace.Sink.file ~path in
  let res = Run_spec.execute ~trace:sink spec in
  Trace.Sink.close sink;
  let trace_md5 = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  let outcome =
    match res with
    | Ok (o, _) -> Supervise.Cached.outcome_to_string o
    | Error (k, _) -> Fmt.str "%a" Supervise.pp_failure_kind k
  in
  Printf.sprintf "%s n=%d seed=%d a=%s %s %s\n" protocol n seed adversary
    trace_md5
    (Digest.to_hex (Digest.string outcome))

let test_sparse_golden () =
  check_digests ~file:sparse_file sparse_line sparse_cells

(* Route witness: a protocol whose [msg_bits] counts its calls, against
   an adversary whose omission verdicts count their calls: per-sender
   mask calls for a {!Sim.View.Masks} plan, predicate calls for a
   {!Sim.View.Predicate} plan. The mask route asks each sender's verdict
   at most once a round; the general route decodes it per message. Both
   routes price a broadcast record once per sender; a message-level sink's
   pending-message walk prices each record once more for its [Send]
   events, once per run of entries sharing it. Flood under a crash
   schedule (a mask plan) broadcasts one record per sender a round, so it
   must make no more than n mask calls and n pricings a round untraced
   and with a round-level sink, and the same mask calls but at most 2n
   pricings a round with any message-level sink: no sink moves the run
   off the mask route. The same sinks on the stripped run, which takes
   the general route, ask its predicate once per message and price
   within the same bound. On either route a [Tail] records the same lines
   through the field-wise entry points, behind a [Sink.make] wrapper (the
   shape of the benchmark's counting wrapper) and teed with a memory
   sink. *)
let test_route_witness () =
  let n = 64 in
  let cfg = Sim.Config.make ~n ~t_max:4 ~seed:1 ~max_rounds:10 () in
  let inputs = Array.init n (fun i -> i mod 2) in
  let priced ?(strip = false) ?trace () =
    let calls = ref 0 and masks = ref 0 and preds = ref 0 in
    let (module P) = Consensus.Flood.protocol_buffered cfg in
    let proto : Sim.Protocol_intf.buffered =
      (module struct
        include P

        let msg_bits m =
          incr calls;
          P.msg_bits m
      end)
    in
    let adversary = Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]) ] in
    let adversary =
      if strip then Adversary.pointwise adversary else adversary
    in
    let adversary =
      {
        adversary with
        Sim.Adversary_intf.create =
          (fun cfg rand ->
            let adv = adversary.Sim.Adversary_intf.create cfg rand in
            fun view ->
              let plan = adv view in
              let omit =
                match plan.Sim.View.omit with
                | Masks m ->
                    Sim.View.Masks
                      (fun src ->
                        incr masks;
                        m src)
                | Predicate p ->
                    Predicate
                      (fun src dst ->
                        incr preds;
                        p src dst)
              in
              { plan with omit });
      }
    in
    let o = Sim.Engine.run ?trace proto cfg ~adversary ~inputs in
    (o, !calls, !masks, !preds)
  in
  let o, untraced, masks, preds = priced () in
  let per_round = o.Sim.Engine.rounds_total * n in
  Alcotest.(check bool)
    (Printf.sprintf "untraced: %d pricings <= %d" untraced per_round)
    true (untraced <= per_round);
  Alcotest.(check bool)
    (Printf.sprintf "untraced: %d mask calls <= %d" masks per_round)
    true (masks <= per_round);
  Alcotest.(check int) "untraced: no predicate calls" 0 preds;
  let bound = 2 * per_round in
  let check ~what ~messages (o', calls, masks', preds) =
    Alcotest.(check bool) (what ^ ": same outcome") true (o = o');
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d mask calls <= %d" what masks' per_round)
      true (masks' <= per_round);
    Alcotest.(check int) (what ^ ": no predicate calls") 0 preds;
    if messages then
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d pricings <= %d" what calls bound)
        true (calls <= bound)
    else Alcotest.(check int) (what ^ ": pricings as untraced") untraced calls
  in
  let observed ~what ?tail ?file () =
    let obs = Trace.Observers.create ~metrics:true ?tail ?file () in
    let sink = Option.get (Trace.Observers.sink obs) in
    let messages = tail <> None || file <> None in
    Alcotest.(check bool) (what ^ " is message-level") messages
      (Trace.Sink.messages sink);
    let res = priced ~trace:sink () in
    Trace.Observers.close obs;
    check ~what ~messages res
  in
  let memory, _ = Trace.Sink.memory () in
  check ~what:"rounds memory" ~messages:false
    (priced ~trace:(Trace.Sink.rounds memory) ());
  check ~what:"memory" ~messages:true (priced ~trace:memory ());
  observed ~what:"metrics" ();
  observed ~what:"metrics+tail" ~tail:5 ();
  let path = Filename.temp_file "route_witness" ".jsonl" in
  observed ~what:"metrics+file" ~file:path ();
  Sys.remove path;
  let stripped ~what (o', calls, masks, preds) =
    Alcotest.(check bool) (what ^ ": same outcome") true (o = o');
    Alcotest.(check int) (what ^ ": no mask calls") 0 masks;
    Alcotest.(check int) (what ^ ": one predicate call per message")
      o.messages_sent preds;
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d pricings <= %d" what calls bound)
      true (calls <= bound)
  in
  let same_tails ~route ~strip judge =
    let direct = Trace.Tail.create ~rounds:5 () in
    let wrapped = Trace.Tail.create ~rounds:5 () in
    let teed = Trace.Tail.create ~rounds:5 () in
    let inner = Trace.Tail.sink wrapped and counted = ref 0 in
    let memory, events = Trace.Sink.memory () in
    List.iter
      (fun (how, sink) ->
        judge ~what:(route ^ " " ^ how) (priced ~strip ~trace:sink ()))
      [
        ("tail", Trace.Tail.sink direct);
        ( "wrapped tail",
          Trace.Sink.make
            ~emit:(fun e ->
              incr counted;
              Trace.Sink.emit inner e)
            ~close:(fun () -> Trace.Sink.close inner) );
        ("memory+tail", Trace.Sink.tee memory (Trace.Tail.sink teed));
      ];
    let lines = Trace.Tail.lines direct in
    Alcotest.(check bool) (route ^ ": tail holds Send events") true
      (List.exists
         (fun l ->
           match Trace.Event.of_json l with
           | Some (Trace.Event.Send _) -> true
           | _ -> false)
         lines);
    Alcotest.(check int) (route ^ ": the wrapper saw every event")
      (List.length (events ())) !counted;
    Alcotest.(check (list string)) (route ^ ": wrapped tail = field-wise tail")
      lines (Trace.Tail.lines wrapped);
    Alcotest.(check (list string)) (route ^ ": teed tail = field-wise tail")
      lines (Trace.Tail.lines teed)
  in
  same_tails ~route:"mask" ~strip:false (check ~messages:true);
  same_tails ~route:"stripped" ~strip:true stripped

let suite =
  List.map
    (fun entry ->
      Alcotest.test_case
        (Printf.sprintf "%s: buffered path bit-identical across routes"
           entry.Harness.Registry.id)
        `Quick (test_entry entry))
    Harness.Registry.all
  @ [
      Alcotest.test_case "every sink keeps the fast route" `Quick
        test_route_witness;
      Alcotest.test_case "registry grids match golden digests" `Quick test_golden;
      Alcotest.test_case "sparse-expander Core runs match golden digests" `Quick
        test_sparse_golden;
    ]
