(* Run supervision and fault containment: the outcome oracle, watchdog
   budgets, the one supervised run, quarantining map, chaos injection and
   the cache-aware map. See supervise.mli. *)

module Budget = struct
  type t = {
    wall_s : float option;
    max_rounds : int option;
    max_messages : int option;
    max_rand_bits : int option;
  }

  let unlimited =
    { wall_s = None; max_rounds = None; max_messages = None; max_rand_bits = None }

  let make ?wall_s ?max_rounds ?max_messages ?max_rand_bits () =
    (match wall_s with
    | Some w when w <= 0. -> invalid_arg "Budget.make: wall_s must be positive"
    | _ -> ());
    let pos name = function
      | Some l when l <= 0 ->
          invalid_arg (Printf.sprintf "Budget.make: %s must be positive" name)
      | _ -> ()
    in
    pos "max_rounds" max_rounds;
    pos "max_messages" max_messages;
    pos "max_rand_bits" max_rand_bits;
    { wall_s; max_rounds; max_messages; max_rand_bits }

  let is_unlimited b = b = unlimited

  let pp ppf b =
    let item name to_s = function
      | None -> None
      | Some v -> Some (Printf.sprintf "%s=%s" name (to_s v))
    in
    let items =
      List.filter_map Fun.id
        [
          item "wall_s" (Printf.sprintf "%g") b.wall_s;
          item "rounds" string_of_int b.max_rounds;
          item "messages" string_of_int b.max_messages;
          item "rand_bits" string_of_int b.max_rand_bits;
        ]
    in
    match items with
    | [] -> Fmt.pf ppf "unlimited"
    | l -> Fmt.pf ppf "%s" (String.concat " " l)
end

(* --- the outcome oracle --- *)

module Oracle = struct
  type property = Consensus | Broadcast of { source : int }

  let metrics (cfg : Sim.Config.t) (o : Sim.Engine.outcome) =
    let bad = ref [] in
    let check property cond detail =
      if not cond then bad := (property, detail) :: !bad
    in
    let faulty_count =
      Array.fold_left (fun a f -> if f then a + 1 else a) 0 o.faulty
    in
    check "metric:fault-budget"
      (o.faults_used <= cfg.t_max)
      (Printf.sprintf "faults_used %d > t_max %d" o.faults_used cfg.t_max);
    check "metric:fault-count"
      (o.faults_used = faulty_count)
      (Printf.sprintf "faults_used %d <> |faulty| %d" o.faults_used faulty_count);
    check "metric:omitted<=sent"
      (o.messages_omitted <= o.messages_sent && o.messages_omitted >= 0)
      (Printf.sprintf "omitted %d vs sent %d" o.messages_omitted o.messages_sent);
    check "metric:bits>=messages"
      (o.bits_sent >= o.messages_sent)
      (Printf.sprintf "bits %d < messages %d" o.bits_sent o.messages_sent);
    check "metric:rounds<=max"
      (o.rounds_total <= cfg.max_rounds)
      (Printf.sprintf "rounds %d > max_rounds %d" o.rounds_total cfg.max_rounds);
    (match o.decided_round with
    | Some r ->
        check "metric:decided-round"
          (r >= 1 && r <= o.rounds_total)
          (Printf.sprintf "decided_round %d outside [1, %d]" r o.rounds_total)
    | None -> ());
    check "metric:rand-monotone"
      (o.rand_calls >= 0 && o.rand_bits >= o.rand_calls)
      (Printf.sprintf "rand bits %d < calls %d" o.rand_bits o.rand_calls);
    check "metric:rand-zero"
      (o.rand_calls > 0 || o.rand_bits = 0)
      (Printf.sprintf "0 calls but %d bits" o.rand_bits);
    Array.iteri
      (fun pid d ->
        match d with
        | Some v when v <> 0 && v <> 1 ->
            check "metric:decision-bit" false
              (Printf.sprintf "pid %d decided non-bit %d" pid v)
        | _ -> ())
      o.decisions;
    List.rev !bad

  (* The covered pids with their decisions, in pid order: those outside
     the effective fault set on a lossy link (the faulty are allowed
     anything, including their residual losses), outside the adversary's
     fault set otherwise. *)
  let covered ?degradation (o : Sim.Engine.outcome) =
    let faulty = Array.copy o.faulty in
    Option.iter
      (fun (d : Net.Degradation.t) ->
        List.iter
          (fun p -> if p < Array.length faulty then faulty.(p) <- true)
          d.effective_faulty)
      degradation;
    List.filter_map
      (fun pid -> if faulty.(pid) then None else Some (pid, o.decisions.(pid)))
      (List.init (Array.length faulty) Fun.id)

  let violations ?degradation ?operative property cfg ~inputs o =
    let covered = covered ?degradation o in
    let decided =
      List.filter_map (fun (p, d) -> Option.map (fun v -> (p, v)) d) covered
    in
    let safety =
      match (property, decided) with
      | Consensus, [] -> []
      | Consensus, (p, v) :: rest -> (
          match List.find_opt (fun (_, w) -> w <> v) rest with
          | Some (q, w) ->
              [
                ( "agreement",
                  Printf.sprintf "non-faulty pids %d and %d decided %d and %d"
                    p q v w );
              ]
          | None when not (Array.mem v inputs) ->
              [ ("validity", Printf.sprintf "decision %d is nobody's input" v) ]
          | None -> [])
      | Broadcast { source }, _ ->
          let input = inputs.(source) in
          (* Section 6: with the source covered and operative throughout,
             every covered pid operative at the end delivers its bit *)
          let owed =
            match operative with
            | Some operative when List.mem_assoc source covered -> operative
            | Some _ | None -> Array.make (Array.length o.decisions) false
          in
          List.filter_map
            (fun (pid, d) ->
              match d with
              | Some v when v <> 0 && v <> input ->
                  Some
                    ( "broadcast-validity",
                      Printf.sprintf "pid %d delivered %d, source sent %d" pid
                        v input )
              | _ when owed.(pid) && d <> Some input ->
                  Some
                    ( "broadcast-delivery",
                      Printf.sprintf
                        "operative pid %d decided %s, not source bit %d" pid
                        (match d with
                        | Some v -> string_of_int v
                        | None -> "nothing")
                        input )
              | _ -> None)
            covered
    in
    metrics cfg o @ safety

  let decision ?degradation o =
    match covered ?degradation o with
    | (_, Some v) :: rest when List.for_all (fun (_, d) -> d = Some v) rest ->
        Some v
    | _ -> None

  (* Wraps a broadcast's adversary to record the operative flags its
     delivery check reads, as the adversary sees them, in a buffer
     allocated once per run: the last round's, and whether the source was
     operative in every round. The plan passes through, so the engine's
     route and the outcome do not move. *)
  let probe ~source ~n (adversary : Sim.Adversary_intf.t) =
    let last = Array.make n false and held = ref true in
    ( {
        adversary with
        Sim.Adversary_intf.create =
          (fun cfg rand ->
            let step = adversary.create cfg rand in
            fun (view : Sim.View.t) ->
              for pid = 0 to n - 1 do
                last.(pid) <- view.obs.(pid).core.operative
              done;
              if not last.(source) then held := false;
              step view);
      },
      fun () -> if !held then Some last else None )
end

type breach = { metric : string; limit : float; actual : float; at_round : int }

type failure_kind =
  | Crashed of { exn_text : string; backtrace : string }
  | Timeout of { limit_s : float; elapsed_s : float }
  | Budget_exceeded of breach
  | Degraded of { induced : int; adversarial : int; t_max : int; residual : int }
  | Violated of { property : string; detail : string }

exception Breach of {
  kind : failure_kind;
  trace : string list;
  replay : string option;
}

type descriptor = {
  d_label : string;
  d_seed : int option;
  d_replay : string option;
}

type failure = {
  index : int;
  label : string;
  seed : int option;
  replay : string option;
  kind : failure_kind;
  elapsed_s : float;
  trace : string list;
}

(* Label of the task currently running under [map], per domain — the trace
   layer in bench_util uses it to name per-run trace files from inside
   worker tasks. *)
let label_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current_label () = Domain.DLS.get label_key

let pp_failure_kind ppf = function
  | Crashed { exn_text; _ } -> Fmt.pf ppf "crashed: %s" exn_text
  | Timeout { limit_s; elapsed_s } ->
      Fmt.pf ppf "timeout: %.3f s elapsed (budget %.3f s)" elapsed_s limit_s
  | Budget_exceeded { metric = "rounds"; limit; _ } ->
      (* the round ceiling trips when reached, the others when passed *)
      Fmt.pf ppf "budget exceeded: still undecided at the %.0f-round ceiling"
        limit
  | Budget_exceeded { metric; limit; actual; at_round } ->
      Fmt.pf ppf "budget exceeded: %s = %.0f > %.0f at round %d" metric actual
        limit at_round
  | Degraded { induced; adversarial; t_max; residual } ->
      Fmt.pf ppf
        "degraded beyond model: %d induced + %d adversarial faults > t=%d (%d \
         residual losses)"
        induced adversarial t_max residual
  | Violated { property; detail } ->
      Fmt.pf ppf "violated %s: %s" property detail

(* --- JSON-lines quarantine record --- *)

(* The quarantine record's fields, shared by [failure_json] and the bench
   sink. Seconds are written to the millisecond. *)
let failure_fields ?(elapsed = true) f =
  let secs x = Jsonl.Raw (Printf.sprintf "%.3f" x) in
  let opt k to_v = function Some x -> [ (k, to_v x) ] | None -> [] in
  let kind =
    match f.kind with
    | Crashed { exn_text; backtrace } ->
        [ ("failure", Jsonl.S "crashed"); ("exn", Jsonl.S exn_text) ]
        @ if backtrace = "" then [] else [ ("backtrace", Jsonl.S backtrace) ]
    | Timeout { limit_s; elapsed_s } ->
        [
          ("failure", Jsonl.S "timeout");
          ("limit_s", secs limit_s);
          ("timeout_elapsed_s", secs elapsed_s);
        ]
    | Budget_exceeded { metric; limit; actual; at_round } ->
        [
          ("failure", Jsonl.S "budget_exceeded");
          ("metric", Jsonl.S metric);
          ("limit", Jsonl.F limit);
          ("actual", Jsonl.F actual);
          ("at_round", Jsonl.I at_round);
        ]
    | Degraded { induced; adversarial; t_max; residual } ->
        [
          ("failure", Jsonl.S "degraded");
          ("induced_faults", Jsonl.I induced);
          ("adversarial_faults", Jsonl.I adversarial);
          ("t_max", Jsonl.I t_max);
          ("residual_losses", Jsonl.I residual);
        ]
    | Violated { property; detail } ->
        [
          ("failure", Jsonl.S "violated");
          ("property", Jsonl.S property);
          ("detail", Jsonl.S detail);
        ]
  in
  [ ("index", Jsonl.I f.index); ("label", Jsonl.S f.label) ]
  @ opt "seed" (fun s -> Jsonl.I s) f.seed
  @ opt "replay" (fun r -> Jsonl.S r) f.replay
  @ kind
  @ (if elapsed then [ ("elapsed_s", secs f.elapsed_s) ] else [])
  (* the trace tail's lines are already JSON objects (Trace.Event.to_json) *)
  @ if f.trace = [] then []
    else [ ("trace", Jsonl.L (List.map (fun l -> Jsonl.Raw l) f.trace)) ]

let failure_json f =
  Jsonl.obj (("kind", Jsonl.S "quarantine") :: failure_fields f)

(* --- supervised engine run --- *)

(* Cache payload codecs (grammar in Cache.Codec). The outcome's bytes
   are load-bearing beyond the cache: golden digests and the benchmark
   compare [outcome_to_string]. *)
let outcome_codec =
  Cache.Codec.(
    conv
      (fun (o : Sim.Engine.outcome) ->
        ( (o.decisions, o.faulty, o.rounds_total),
          (o.decided_round, o.messages_sent, o.bits_sent),
          (o.messages_omitted, o.rand_calls, (o.rand_bits, o.faults_used)) ))
      (fun ( (decisions, faulty, rounds_total),
             (decided_round, messages_sent, bits_sent),
             (messages_omitted, rand_calls, (rand_bits, faults_used)) ) ->
        { Sim.Engine.decisions; faulty; rounds_total; decided_round;
          messages_sent; bits_sent; messages_omitted; rand_calls;
          rand_bits; faults_used })
      (triple
         (triple (array (option int)) bits int)
         (triple (option int) int int)
         (triple int int (pair int int))))

(* Net.Spec.to_string is canonical (round-trips through of_string) and
   has no spaces, so the spec is one top-level string atom *)
let spec_codec =
  Cache.Codec.conv Net.Spec.to_string
    (fun s -> Result.fold ~ok:Fun.id ~error:failwith (Net.Spec.of_string s))
    Cache.Codec.string

let degradation_codec =
  Cache.Codec.(
    conv
      (fun (d : Net.Degradation.t) ->
        ( (d.spec, d.attempts, d.retransmits),
          ((d.drops, d.dups, d.delays), (d.stalls, d.residual, d.rounds),
           (d.active_rounds, d.slots, d.induced_per_pid)),
          ((d.induced_faulty, d.adversarial_faulty, d.effective_faulty),
           d.t_max, d.beyond_model) ))
      (fun ( (spec, attempts, retransmits),
             ((drops, dups, delays), (stalls, residual, rounds),
              (active_rounds, slots, induced_per_pid)),
             ((induced_faulty, adversarial_faulty, effective_faulty),
              t_max, beyond_model) ) ->
        { Net.Degradation.spec; attempts; retransmits; drops; dups; delays;
          stalls; residual; rounds; active_rounds; slots; induced_per_pid;
          induced_faulty; adversarial_faulty; effective_faulty; t_max;
          beyond_model })
      (triple
         (triple spec_codec int int)
         (triple (triple int int int) (triple int int int)
            (triple int int (array int)))
         (triple (triple (list int) (list int) (list int)) int bool)))

(* a run's cached result, [(outcome, report)]; the report is there
   exactly when the run had a net, and the key says which *)
let result_codec = function
  | None -> Cache.Codec.conv fst (fun o -> (o, None)) outcome_codec
  | Some _ ->
      Cache.Codec.(
        conv
          (fun (o, d) -> (o, Option.get d))
          (fun (o, d) -> (o, Some d))
          (pair outcome_codec degradation_codec))

(* The engine under the watchdog, over the [net] transport if given:
   [(outcome, degradation report)], or the failure with the partial
   result. *)
let watched ?trace ~budget ?net proto cfg ~adversary ~inputs =
  let started = Unix.gettimeofday () in
  let tripped = ref None in
  let stop (p : Sim.Engine.progress) =
    let hit metric limit actual =
      if !tripped = None then
        tripped := Some { metric; limit; actual; at_round = p.p_round }
    in
    (match budget.Budget.max_rounds with
    | Some l when p.p_round >= l -> hit "rounds" (float_of_int l) (float_of_int p.p_round)
    | _ -> ());
    (match budget.Budget.max_messages with
    | Some l when p.p_messages > l ->
        hit "messages" (float_of_int l) (float_of_int p.p_messages)
    | _ -> ());
    (match budget.Budget.max_rand_bits with
    | Some l when p.p_rand_bits > l ->
        hit "rand_bits" (float_of_int l) (float_of_int p.p_rand_bits)
    | _ -> ());
    (match budget.Budget.wall_s with
    | Some l ->
        let elapsed = Unix.gettimeofday () -. started in
        if elapsed > l then hit "wall_s" l elapsed
    | None -> ());
    !tripped <> None
  in
  let stop = if Budget.is_unlimited budget then None else Some stop in
  let transport = Option.map (fun spec -> Net.Transport.create spec cfg) net in
  let link = Option.map Net.Transport.link transport in
  let with_report (o : Sim.Engine.outcome) =
    ( o,
      Option.map
        (fun tr ->
          Net.Degradation.of_transport tr ~faulty:o.faulty
            ~t_max:cfg.Sim.Config.t_max)
        transport )
  in
  match
    Sim.Engine.run ?stop ?trace ?link proto cfg ~adversary ~inputs
  with
  | o -> (
      match !tripped with
      | Some b when o.Sim.Engine.decided_round = None ->
          let kind =
            if b.metric = "wall_s" then
              Timeout { limit_s = b.limit; elapsed_s = b.actual }
            else Budget_exceeded b
          in
          Error (kind, Some (with_report o))
      | _ -> Ok (with_report o))
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Error
        ( Crashed
            {
              exn_text = Printexc.to_string e;
              backtrace = Printexc.raw_backtrace_to_string bt;
            },
          None )

(* A finished run is reported only inside the model: a lossy-link run
   whose effective fault set exceeds t_max is degraded, never a consensus
   result computed over too many faults; one the oracle rejects is
   violated. *)
let judge ?operative ~property cfg ~inputs ((o, d) as result) =
  match d with
  | Some (d : Net.Degradation.t) when d.beyond_model ->
      Error
        ( Degraded
            {
              induced = List.length d.induced_faulty;
              adversarial = List.length d.adversarial_faulty;
              t_max = cfg.Sim.Config.t_max;
              residual = d.residual;
            },
          Some result )
  | _ -> (
      match Oracle.violations ?degradation:d ?operative property cfg ~inputs o with
      | [] -> Ok result
      | (property, detail) :: _ ->
          Error (Violated { property; detail }, Some result))

(* Only successes are cached: failures, degraded and violated runs re-run
   (and re-report) every time — a quarantine served from a cache would
   hide a flaky environment. A hit is judged like a fresh run (bar the
   delivery check, which needs the run's operative flags), and an
   undecodable payload (torn or hand-edited object) is dropped by the
   lookup and recomputed once. *)
let run ?trace ?(budget = Budget.unlimited) ?net ?cache ~property
    proto cfg ~adversary ~inputs =
  let fresh () =
    let adversary, operative =
      match property with
      | Oracle.Consensus -> (adversary, fun () -> None)
      | Oracle.Broadcast { source } ->
          Oracle.probe ~source ~n:cfg.Sim.Config.n adversary
    in
    Result.bind
      (watched ?trace ~budget ?net proto cfg ~adversary ~inputs)
      (fun r -> judge ?operative:(operative ()) ~property cfg ~inputs r)
  in
  match cache with
  | None -> fresh ()
  | Some (store, key) -> (
      let codec = result_codec net in
      match Cache.Store.lookup store ~decode:(Cache.Codec.decode codec) key with
      | Some v ->
          Option.iter
            (fun sink ->
              let key = Cache.Store.digest_key store key in
              Trace.Sink.emit sink (Trace.Event.Cache_hit { key }))
            trace;
          judge ~property cfg ~inputs v
      | None ->
          let r = fresh () in
          Result.iter
            (fun v -> Cache.Store.add store ~key (Cache.Codec.encode codec v))
            r;
          r)

(* --- quarantining map --- *)

(* Run the tasks at indices [idx] of [xs]; results follow [idx], and
   every descriptor and failure record names the task by its index in
   [xs] — which is what a cache-aware caller running only the misses
   needs. [on_ok i v] runs on the worker as soon as task [i] succeeds. *)
let map_at ?jobs ?(budget = Budget.unlimited) ?describe
    ?(on_ok = fun _ _ -> ()) f xs idx =
  let describe i x =
    match describe with
    | Some d -> d i x
    | None -> { d_label = string_of_int i; d_seed = None; d_replay = None }
  in
  Exec.map ?jobs
    (fun i ->
      let x = xs.(i) in
      let d = describe i x in
      Domain.DLS.set label_key (Some d.d_label);
      let t0 = Unix.gettimeofday () in
      let fail ?(trace = []) ?replay kind =
        Error
          {
            index = i;
            label = d.d_label;
            seed = d.d_seed;
            replay = (match replay with Some _ -> replay | None -> d.d_replay);
            kind;
            elapsed_s = Unix.gettimeofday () -. t0;
            trace;
          }
      in
      let result =
        match f x with
        | v -> (
            match budget.Budget.wall_s with
            | Some l ->
                let elapsed = Unix.gettimeofday () -. t0 in
                if elapsed > l then
                  fail (Timeout { limit_s = l; elapsed_s = elapsed })
                else Ok v
            | None -> Ok v)
        | exception Breach { kind; trace; replay } -> fail ~trace ?replay kind
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            fail
              (Crashed
                 {
                   exn_text = Printexc.to_string e;
                   backtrace = Printexc.raw_backtrace_to_string bt;
                 })
      in
      Domain.DLS.set label_key None;
      (match result with Ok v -> on_ok i v | Error _ -> ());
      result)
    idx

let map ?jobs ?budget ?describe f xs =
  map_at ?jobs ?budget ?describe f xs (Array.init (Array.length xs) Fun.id)

(* --- chaos injection --- *)

module Chaos = struct
  exception Injected of string

  let () =
    Printexc.register_printer (function
      | Injected m -> Some (Printf.sprintf "Supervise.Chaos.Injected(%s)" m)
      | _ -> None)

  let pick ~seed ~n ~k =
    if k < 0 || k > n then invalid_arg "Chaos.pick: need 0 <= k <= n";
    let idx = Array.init n (fun i -> i) in
    let rand = Sim.Rand.create ~seed:(Int64.of_int seed) () in
    Sim.Rand.shuffle rand idx;
    List.sort compare (Array.to_list (Array.sub idx 0 k))

  type t = { crash_mask : Bytes.t; straggle_mask : Bytes.t; straggle_s : float }

  (* Membership is precomputed into a byte mask at plan-construction time:
     [wrap] runs once per task of a sweep, and a [List.mem] scan per task
     over large victim lists is O(tasks * victims). *)
  let mask_of l =
    let hi = List.fold_left (fun a i -> max a i) (-1) l in
    let m = Bytes.make (hi + 1) '\000' in
    List.iter (fun i -> if i >= 0 then Bytes.set m i '\001') l;
    m

  let tagged m i = i >= 0 && i < Bytes.length m && Bytes.get m i = '\001'

  let make ?(crash = []) ?(straggle = []) ?(straggle_s = 0.2) () =
    {
      crash_mask = mask_of crash;
      straggle_mask = mask_of straggle;
      straggle_s;
    }

  let wrap t f i x =
    if tagged t.crash_mask i then
      raise (Injected (Printf.sprintf "injected task failure at index %d" i));
    if tagged t.straggle_mask i then Unix.sleepf t.straggle_s;
    f i x

  let protocol ?pid ~crash_round (module P : Sim.Protocol_intf.BUFFERED) :
      Sim.Protocol_intf.buffered =
    (module struct
      type state = P.state * int  (* pid riding along for the pid filter *)
      type msg = P.msg

      let name = P.name ^ "+chaos"
      let init cfg ~pid ~input = (P.init cfg ~pid ~input, pid)

      let step_into cfg (st, me) ~round ~inbox ~rand ~emit ~emit_all =
        if round = crash_round && (pid = None || pid = Some me) then
          raise
            (Injected
               (Printf.sprintf "injected protocol crash at round %d" round));
        (P.step_into cfg st ~round ~inbox ~rand ~emit ~emit_all, me)

      let observe (st, _) = P.observe st
      let msg_bits = P.msg_bits
      let msg_hint = P.msg_hint
    end)
end

(* --- cache-aware map --- *)

module Cached = struct
  let outcome_to_string = Cache.Codec.encode outcome_codec

  (* Cache-aware quarantining map: consult the store per element on the
     calling domain, run only the misses through the domain pool, and
     merge in input order. Each fresh success is written back by its
     worker the moment it completes, so a killed sweep keeps every task
     it finished. [describe] and quarantine records see original
     indices, so a warm pass reports failures exactly as a cold one. *)
  let map ?jobs ?budget ?describe ?store ~key ~codec f xs =
    match store with
    | None -> map ?jobs ?budget ?describe f xs
    | Some st ->
        let decode = Cache.Codec.decode codec in
        let cached =
          Array.map (fun x -> Cache.Store.lookup st ~decode (key x)) xs
        in
        let misses =
          Array.of_list
            (List.filter
               (fun i -> cached.(i) = None)
               (List.init (Array.length xs) Fun.id))
        in
        let fresh =
          map_at ?jobs ?budget ?describe
            ~on_ok:(fun i v ->
              Cache.Store.add st ~key:(key xs.(i)) (Cache.Codec.encode codec v))
            f xs misses
        in
        let results = Array.map (Option.map Result.ok) cached in
        Array.iteri (fun j r -> results.(misses.(j)) <- Some r) fresh;
        Array.map Option.get results
end
