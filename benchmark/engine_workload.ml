(* The four engine workloads: one protocol configuration driven through a
   reusable [Sim.Engine.instance], timed per [run_instance] call. Each
   instance gets untimed warm-up runs first, which grow its buffers and,
   with a sink, let the layered pass count trace events. *)

type t = {
  n : int;
  t : int;
  protocol : Sim.Config.t -> Sim.Protocol_intf.buffered;
  max_rounds : Sim.Config.t -> int;
  adversary : seed:int -> n:int -> Sim.Adversary_intf.t;
  tail : bool;  (** run with a 5-round [Trace.Tail] sink *)
}

(* Fresh set-ups per run; [setup_s] is their low percentile. *)
let setups = 25

let stream ~seed salt = Sim.Rand.derive (Sim.Rand.create ~seed:(Int64.of_int seed) ()) salt

let shuffled ~seed ~salt a =
  Sim.Rand.shuffle (stream ~seed salt) a;
  a

(* Half zeros, half ones, in a seeded order. *)
let inputs ~seed n = shuffled ~seed ~salt:1 (Array.init n (fun i -> i mod 2))

(* Three seeded victims crashed in rounds 1-3: a structured plan, so the
   engine takes the compiled-mask route when no sink is attached. *)
let three_crashes ~seed ~n =
  let p = shuffled ~seed ~salt:2 (Array.init n Fun.id) in
  Adversary.crash_schedule [ (1, [ p.(0) ]); (2, [ p.(1) ]); (3, [ p.(2) ]) ]

let flood ~n ~adversary ~tail =
  {
    n;
    t = 8;
    protocol = Consensus.Flood.protocol_buffered;
    max_rounds = (fun cfg -> cfg.Sim.Config.t_max + 3);
    adversary;
    tail;
  }

let all ~toy =
  let size n = if toy then 64 else n in
  [
    ( "alg1-n96",
      let n = size 96 in
      {
        n;
        t = n / 31;
        protocol = (fun cfg -> Consensus.Optimal_omissions.protocol_buffered cfg);
        max_rounds = (fun cfg -> Consensus.Optimal_omissions.rounds_needed cfg + 10);
        adversary = (fun ~seed:_ ~n:_ -> Adversary.vote_splitter ());
        tail = false;
      } );
    ("flood-n4096-masked", flood ~n:(size 4096) ~adversary:three_crashes ~tail:false);
    ( "flood-n1024-pointwise",
      flood ~n:(size 1024) ~tail:false ~adversary:(fun ~seed:_ ~n:_ ->
          Adversary.random_omission ~p_omit:0.5) );
    ("flood-n1024-tail", flood ~n:(size 1024) ~adversary:three_crashes ~tail:true);
  ]

(* Untimed runs before the peak heap is read. The peak settles over the
   first few runs: on alg1-n96, seeds 1-10 read 14.2-16.9 MB after one
   run and 16.8-17.5 MB after three. *)
let warmups = 3

(* Read after a fixed amount of work (set-up and warm-up), not at exit:
   how many runs fit in the measuring time varies with the host, and so
   would a peak read after all of them. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Call [f] at least [min_runs] times, and again while one more call, at
   the mean duration so far, would end within [seconds]. After each call,
   [after] gets the share of [seconds] used so far. *)
let repeat ?(after = ignore) ~seconds ~min_runs f =
  let t0 = Layers.now_ns () in
  let k = ref 0 in
  let elapsed () = float_of_int (Layers.now_ns () - t0) /. 1e9 in
  while
    !k < min_runs || elapsed () *. float_of_int (!k + 1) /. float_of_int !k <= seconds
  do
    f ();
    incr k;
    after (elapsed () /. seconds)
  done

(* Set-up samples taken a few at a time between timed runs, so they
   spread over the run rather than all sharing one moment's host state:
   [due share] tops the count up to [share] of [setups]. *)
type sampler = { mutable taken : int; take : unit -> unit }

let due s share =
  let target =
    if not (share < 1.) then setups
    else int_of_float (Float.ceil (share *. float_of_int setups))
  in
  while s.taken < target do
    s.take ();
    s.taken <- s.taken + 1
  done

let run (w : t) r ~seed ~seconds ~layered =
  let cfg0 = Sim.Config.make ~n:w.n ~t_max:w.t ~seed () in
  let cfg = { cfg0 with Sim.Config.max_rounds = w.max_rounds cfg0 } in
  let adversary = w.adversary ~seed ~n:w.n in
  let inputs = inputs ~seed w.n in
  (* One fresh set-up, protocol build plus instance, timed from a collected
     heap so the previous run's garbage is not charged to it. *)
  let build_ns = ref [] and inst_ns = ref [] in
  let setup () =
    Gc.full_major ();
    let t0 = Layers.now_ns () in
    let p = w.protocol cfg in
    let t1 = Layers.now_ns () in
    let inst = Sim.Engine.instance p cfg in
    let t2 = Layers.now_ns () in
    build_ns := float_of_int (t1 - t0) :: !build_ns;
    inst_ns := float_of_int (t2 - t1) :: !inst_ns;
    inst
  in
  let inst = setup () in
  let sampler = { taken = 1; take = (fun () -> ignore (setup ())) } in
  (* Oracle: agreement within max_rounds, and one outcome record (plus,
     with a sink, one trace tail) for every run of the workload. *)
  let first = ref None in
  let check (o : Sim.Engine.outcome) tail =
    let fp =
      Supervise.Cached.outcome_to_string o
      ^
      match tail with
      | None -> ""
      | Some tl -> "\n" ^ Digest.to_hex (Digest.string (String.concat "\n" (Trace.Tail.lines tl)))
    in
    Report.check r
      (Sim.Engine.agreed_decision o <> None)
      "no agreement among non-faulty processes within %d rounds" cfg.max_rounds;
    match !first with
    | None -> first := Some fp
    | Some fp0 -> Report.check r (fp = fp0) "outcome differs from the workload's first run"
  in
  let sink ?count () =
    if not w.tail then (None, None)
    else
      let tl = Trace.Tail.create ~rounds:5 () in
      let s = Trace.Tail.sink tl in
      let s =
        match count with
        | None -> s
        | Some c ->
            Trace.Sink.make
              ~emit:(fun e ->
                incr c;
                Trace.Sink.emit s e)
              ~close:(fun () -> Trace.Sink.close s)
      in
      (Some s, Some tl)
  in
  let plain_ns = ref [] and plain_words = ref 0. and plain_rounds = ref 0 in
  (* Every run starts from a collected heap, so none pays for the garbage
     of the run or set-up before it. *)
  let plain_run ~timed =
    let trace, tail = sink () in
    Gc.full_major ();
    let w0 = Layers.all_words () in
    let t0 = Layers.now_ns () in
    let o = Sim.Engine.run_instance ?trace inst ~adversary ~inputs in
    let ns = Layers.now_ns () - t0 in
    let words = Layers.all_words () -. w0 in
    if timed then begin
      plain_ns := float_of_int ns :: !plain_ns;
      plain_words := !plain_words +. words;
      plain_rounds := !plain_rounds + o.rounds_total
    end;
    check o tail
  in
  for _ = 1 to warmups do
    plain_run ~timed:false
  done;
  let peak = peak_heap_mb () in
  if not layered then begin
    repeat ~after:(due sampler) ~seconds ~min_runs:2 (fun () -> plain_run ~timed:true);
    due sampler 1.;
    let ns = Array.of_list !plain_ns in
    Report.add r ~samples:setups "setup_s" "s"
      (Report.low (Array.of_list (List.map2 ( +. ) !build_ns !inst_ns)) /. 1e9);
    Report.add r ~samples:(Array.length ns) "decide_s" "s" (Report.low ns /. 1e9);
    Report.add r ~extra:true ~samples:(Array.length ns) "decide_s.median" "s"
      (Report.median ns /. 1e9);
    Report.add r ~samples:(Array.length ns) "words_per_round" "words"
      (!plain_words /. float_of_int (max 1 !plain_rounds));
    Report.add r ~samples:1 "peak_heap_mb" "MB" peak;
    Report.add r ~extra:true ~samples:(Array.length ns) "rounds_per_run" "count"
      (float_of_int !plain_rounds /. float_of_int (max 1 (Array.length ns)))
  end
  else begin
    (* The layered pass alternates plain and wrapped runs, each on its own
       instance, so [trace_overhead] compares runs under equal conditions. *)
    let spans = Layers.create () in
    let linst = Sim.Engine.instance (Layers.protocol spans (w.protocol cfg)) cfg in
    let ladversary = Layers.adversary_of spans adversary in
    let events = ref 0 and event_rounds = ref 0 in
    let layered_ns = ref [] and coverage = ref 1. in
    let rounds = ref 0 and msgs = ref 0 in
    let layered_run ~timed =
      let trace, tail = sink ?count:(if timed then None else Some events) () in
      Gc.full_major ();
      let o, ns, cov =
        Layers.run spans (fun () ->
            Sim.Engine.run_instance ?trace linst ~adversary:ladversary ~inputs)
      in
      if timed then begin
        layered_ns := float_of_int ns :: !layered_ns;
        coverage := Float.min !coverage cov;
        rounds := !rounds + o.rounds_total;
        msgs := !msgs + o.messages_sent
      end
      else event_rounds := o.rounds_total;
      check o tail
    in
    layered_run ~timed:false;
    Layers.reset spans;
    repeat ~after:(due sampler) ~seconds ~min_runs:1 (fun () ->
        plain_run ~timed:true;
        layered_run ~timed:true);
    due sampler 1.;
    let lns = Array.of_list !layered_ns and pns = Array.of_list !plain_ns in
    let runs = Array.length lns in
    Layers.report spans r ~runs ~rounds:!rounds ~coverage:!coverage;
    Report.add r ~samples:setups "setup.protocol_s" "s"
      (Report.low (Array.of_list !build_ns) /. 1e9);
    Report.add r ~samples:setups "setup.instance_s" "s"
      (Report.low (Array.of_list !inst_ns) /. 1e9);
    Report.add r ~samples:runs "msgs_per_round" "count"
      (float_of_int !msgs /. float_of_int (max 1 !rounds));
    Report.add r ~samples:1 "trace.events_per_round" "count"
      (float_of_int !events /. float_of_int (max 1 !event_rounds));
    let overhead = Report.low lns /. Report.low pns in
    Report.add r ~samples:runs "trace_overhead" "ratio" overhead
      ?flag:(if overhead > 1.05 then Some "layered runs over 5% slower" else None);
    Report.add r ~extra:true ~samples:runs "decide_s.layered" "s" (Report.low lns /. 1e9);
    Report.add r ~extra:true ~samples:(Array.length pns) "decide_s.plain" "s"
      (Report.low pns /. 1e9)
  end
