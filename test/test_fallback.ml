(* Fallback oracle: Algorithm 1's deterministic tail (lines 17-19), in the
   three protocols that end with it.

   The voting core decides whp, so the default schedule almost never
   reaches the fallback and no other golden pins it. These runs cut the
   core to one epoch ([Params.epochs = Fixed 1]), which leaves operative
   processes undecided and sends them into the phase-king tail: optimal,
   crash-sub and param-x2 at n = 36 and 64, under run-spec adversaries
   and under [Test_optimal.eclipse_fallback], which eclipses one
   participant for the whole phase-king run so that it ends undecided.

   The engine stops once every non-faulty process has decided, so an
   eclipsed (faulty) participant's next step is traced only when some
   non-faulty process decides later still. Two kinds of cell arrange
   that. For optimal and crash-sub at n = 36, t = 4, a strategy silences
   pids 0-2 for the whole run, which leaves their non-faulty group mates
   inoperative and idle until the line-18 broadcast reaches them, and
   eclipses pid 20 for the tail: optimal resolves pid 20 in the residue
   round, crash-sub in its Help exchange. For param, [lone_participant]
   splits the safety vote so that one non-faulty process is the tail's
   only participant besides the faulty splitter; it hears nothing and
   self-decides in the residue round.

   The n = 96 optimal runs pin the receive side of the expander-link rule
   ({!Consensus.Links}), where Delta = 56 < n - 1: [split_silence] makes
   one process miss half its spreading senders in one slot, which it then
   disregards, and another quarter in the next. Counting only the links it
   still regards, it hears about a quarter of its neighbours, below
   Delta/3, and turns inoperative; a receiver that counted its disregarded
   links again would hear three quarters and stay operative.

   Each line of [golden/fallback_digests.txt] holds the MD5 of a run's
   JSONL trace and the MD5 of its outcome, as in
   [golden/core_sparse_digests.txt]. The test also checks that each run
   entered the tail, and that each protocol has a run in which a
   participant left the tail undecided and was resolved after it. *)

let params =
  {
    Consensus.Params.default with
    Consensus.Params.epochs = Consensus.Params.Fixed 1;
  }

let golden_file = "golden/fallback_digests.txt"

type cell = {
  protocol : string;
  n : int;
  t : int;
  seed : int;
  adversary : string;
      (** a run-spec name, ["eclipse-fallback"], ["lone-participant"],
          ["split-silence-<victim>-<round>"], or a strategy in which [$S]
          and [$E] stand for the tail's first and last exchange rounds *)
  inputs : string;  (** ["mixed"] or ["four-zeros"] *)
}

let builder = function
  | "optimal" -> Consensus.Optimal_omissions.builder ~params ()
  | "crash-sub" -> Consensus.Crash_subquadratic.builder ~params ()
  | "param-x2" -> Consensus.Param_omissions.builder ~params ~x:2 ()
  | p -> invalid_arg p

(* The global round of the tail's local round 1, from each protocol's
   round layout. Param's two super-processes have n/2 members (n even);
   each of its two phases is a sub-run plus 2 ceil(log2 n) flood slots,
   followed by the safety vote and the safety final. *)
let tail_start c =
  let core m ~t_max = Consensus.Core.schedule_length ~params ~t_max m in
  let log2 = Consensus.Params.log2_ceil c.n in
  match c.protocol with
  | "optimal" -> core c.n ~t_max:c.t + 1
  | "crash-sub" -> core c.n ~t_max:c.t + (2 * log2) + 1
  | "param-x2" ->
      let m = c.n / 2 in
      (2 * (core m ~t_max:(max 1 (m / 30)) + (2 * log2))) + 3
  | p -> invalid_arg p

let pk_rounds c = Consensus.Phase_king.rounds ~t_max:c.t

(* Param only. With [four-zeros] inputs neither sub-run decides, so the
   safety vote (two rounds before the tail) counts 32 ones against 4
   zeros, just short of ready. The faulty zero-holder [f] sends its vote
   to [k] alone: every other process counts 32 against 3 and decides,
   while [k] and [f] enter the tail, where their messages to each other
   are omitted. *)
let lone_participant ~start ~last =
  let f = 0 and k = 5 in
  {
    Sim.Adversary_intf.name = "lone-participant";
    create =
      (fun _cfg _rand view ->
        let r = view.Sim.View.round in
        if r = start - 2 then
          Sim.View.pointwise ~new_faults:[ f ] ~omit:(fun src dst ->
              src = f && dst <> k)
        else if r >= start && r <= last then
          Sim.View.pointwise ~new_faults:[] ~omit:(fun src dst ->
              (src = f && dst = k) || (src = k && dst = f))
        else Sim.View.no_op);
  }

(* Optimal at n = 96 only: [victim] misses the senders whose pid is 0 or
   1 mod 4 in the spreading slot sent at [round], and those that are 2 mod
   4 in the next one. *)
let split_silence ~victim ~round =
  {
    Sim.Adversary_intf.name = "split-silence";
    create =
      (fun _cfg _rand view ->
        let r = view.Sim.View.round in
        if r = round then
          Sim.View.pointwise ~new_faults:[ victim ] ~omit:(fun src dst ->
              dst = victim && src mod 4 < 2)
        else if r = round + 1 then
          Sim.View.pointwise ~new_faults:[] ~omit:(fun src dst ->
              dst = victim && src mod 4 = 2)
        else Sim.View.no_op);
  }

let substitute ~start ~last s =
  let b = Buffer.create (String.length s) in
  Buffer.add_substitute b
    (function
      | "S" -> string_of_int start
      | "E" -> string_of_int last
      | v -> invalid_arg v)
    s;
  Buffer.contents b

let adversary c =
  let start = tail_start c in
  (* the tail exchanges messages sent in its local rounds 1 .. P *)
  let last = start + pk_rounds c - 1 in
  match c.adversary with
  | "eclipse-fallback" ->
      Test_optimal.eclipse_fallback ~victim:1 ~from_round:start ~to_round:last
  | "lone-participant" -> lone_participant ~start ~last
  | a when String.starts_with ~prefix:"split-silence-" a ->
      Scanf.sscanf a "split-silence-%d-%d" (fun victim round ->
          split_silence ~victim ~round)
  | a when List.mem a Run_spec.Cli.adversary_names ->
      Run_spec.adversary
        (Run_spec.make ~adversary:a ~protocol:c.protocol ~n:c.n ~t_max:c.t
           ~seed:c.seed ())
  | a ->
      Adversary.Strategy.compile
        (Adversary.Strategy.of_string (substitute ~start ~last a))

let inputs c =
  match c.inputs with
  | "mixed" -> Array.init c.n (fun i -> i mod 2)
  | "four-zeros" ->
      let h = c.n / 2 in
      Array.init c.n (fun i ->
          if i = 0 || i = 1 || i = h || i = h + 1 then 0 else 1)
  | i -> invalid_arg i

let cells =
  let cell ?(seed = 1) ?(inputs = "mixed") protocol n t adversary =
    { protocol; n; t; seed; adversary; inputs }
  in
  let sizes protocol adversaries =
    List.concat_map
      (fun (n, t) -> List.map (cell protocol n t) adversaries)
      [ (36, 1); (64, 2) ]
  in
  let idle_group =
    "both(strike(p0.1.2,all),from($S,until($E,strike(p20,in))))"
  in
  sizes "optimal" [ "splitter"; "random"; "eclipse"; "eclipse-fallback" ]
  @ [ cell "optimal" 36 4 idle_group ]
  @ sizes "crash-sub" [ "crash"; "random"; "eclipse-fallback" ]
  @ [ cell "crash-sub" 36 4 idle_group ]
  @ sizes "param-x2" [ "splitter"; "group"; "eclipse-fallback" ]
  @ [ cell ~inputs:"four-zeros" "param-x2" 36 1 "lone-participant" ]
  @ [
      (* the first epoch's spreading slots are rounds 13-19 *)
      cell "optimal" 96 3 "split-silence-5-13";
      cell ~seed:42 "optimal" 96 3 "split-silence-5-13";
      cell "optimal" 96 3 "split-silence-40-14";
    ]

let residue_seen = Hashtbl.create 3

let line c =
  let builder = builder c.protocol in
  let module B = (val builder : Sim.Protocol_intf.BUILDER) in
  let cfg0 = Sim.Config.make ~n:c.n ~t_max:c.t ~seed:c.seed () in
  let cfg = { cfg0 with Sim.Config.max_rounds = B.rounds_needed cfg0 } in
  let start = tail_start c in
  let participant = Array.make c.n false and decided_at = Array.make c.n 0 in
  let probe =
    Trace.Sink.make ~close:ignore ~emit:(function
      | Trace.Event.Send { round; src; _ } when round = start ->
          participant.(src) <- true
      | Trace.Event.Decide { round; pid; _ } -> decided_at.(pid) <- round
      | _ -> ())
  in
  let path = Filename.temp_file "fallback" ".jsonl" in
  let file = Trace.Sink.file ~path in
  let o =
    Sim.Engine.run (B.build cfg) cfg
      ~trace:(Trace.Sink.tee file probe)
      ~adversary:(adversary c) ~inputs:(inputs c)
  in
  Trace.Sink.close file;
  let trace_md5 = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  let ctx =
    Printf.sprintf "%s n=%d t=%d seed=%d a=%s i=%s" c.protocol c.n c.t c.seed
      c.adversary c.inputs
  in
  (match o.Sim.Engine.decided_round with
  | Some r when r > start -> ()
  | r ->
      Alcotest.failf "%s: did not enter the tail at round %d (decided %s)" ctx
        start
        (match r with Some r -> string_of_int r | None -> "never"));
  (* a participant (it broadcast in the tail's first round) that decided
     after the finalize round left the tail undecided and was resolved by
     what follows it *)
  let finalize = start + pk_rounds c in
  for p = 0 to c.n - 1 do
    if participant.(p) && decided_at.(p) > finalize then
      Hashtbl.replace residue_seen c.protocol ()
  done;
  Printf.sprintf "%s %s %s\n" ctx trace_md5
    (Digest.to_hex (Digest.string (Supervise.Cached.outcome_to_string o)))

let test_golden () =
  Hashtbl.reset residue_seen;
  Test_engine_equiv.check_digests ~file:golden_file line cells;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p ^ ": a participant left the tail undecided and was resolved")
        true
        (Hashtbl.mem residue_seen p))
    [ "optimal"; "crash-sub"; "param-x2" ]

let suite =
  [
    Alcotest.test_case "fallback tail runs match golden digests" `Quick
      test_golden;
  ]
