(* Run supervision and fault containment: watchdog budgets, quarantining
   map, chaos injection, and the cache-aware wrappers. See supervise.mli. *)

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

type breach = { metric : string; limit : float; actual : float; at_round : int }

type failure_kind =
  | Crashed of { exn_text : string; backtrace : string }
  | Timeout of { limit_s : float; elapsed_s : float }
  | Budget_exceeded of breach
  | Degraded of { induced : int; adversarial : int; t_max : int; residual : int }

exception Breach of failure_kind
exception Breach_traced of failure_kind * string list

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
  | Budget_exceeded { metric; limit; actual; at_round } ->
      Fmt.pf ppf "budget exceeded: %s = %.0f > %.0f at round %d" metric actual
        limit at_round
  | Degraded { induced; adversarial; t_max; residual } ->
      Fmt.pf ppf
        "degraded beyond model: %d induced + %d adversarial faults > t=%d (%d \
         residual losses)"
        induced adversarial t_max residual

let pp_failure ppf f =
  Fmt.pf ppf "[%d] %s: %a" f.index f.label pp_failure_kind f.kind;
  match f.replay with
  | Some cmd -> Fmt.pf ppf "@.    replay: %s" cmd
  | None -> ()

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

let run ?on_round ?trace ?link ?(budget = Budget.unlimited) proto cfg
    ~adversary ~inputs =
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
  match
    Sim.Engine.run ?on_round ?stop ?trace ?link proto cfg ~adversary ~inputs
  with
  | o -> (
      match !tripped with
      | Some b when o.Sim.Engine.decided_round = None ->
          let kind =
            if b.metric = "wall_s" then
              Timeout { limit_s = b.limit; elapsed_s = b.actual }
            else Budget_exceeded b
          in
          Error (kind, Some o)
      | _ -> Ok o)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Error
        ( Crashed
            {
              exn_text = Printexc.to_string e;
              backtrace = Printexc.raw_backtrace_to_string bt;
            },
          None )

(* --- supervised run over a lossy link --- *)

let run_net ?on_round ?trace ?budget ~net proto cfg ~adversary ~inputs =
  let tr = Net.Transport.create net cfg in
  let link = Net.Transport.link tr in
  let report (o : Sim.Engine.outcome) =
    Net.Degradation.of_transport tr ~faulty:o.Sim.Engine.faulty
      ~t_max:cfg.Sim.Config.t_max
  in
  match run ?on_round ?trace ~link ?budget proto cfg ~adversary ~inputs with
  | Ok o ->
      let d = report o in
      if d.Net.Degradation.beyond_model then
        (* the run left the omission model: report degradation, never a
           consensus result computed over too many faults *)
        Error
          ( Degraded
              {
                induced = List.length d.Net.Degradation.induced_faulty;
                adversarial = List.length d.Net.Degradation.adversarial_faulty;
                t_max = cfg.Sim.Config.t_max;
                residual = d.Net.Degradation.residual;
              },
            Some (o, d) )
      else Ok (o, d)
  | Error (kind, partial) ->
      Error (kind, Option.map (fun o -> (o, report o)) partial)

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
      let fail ?(trace = []) kind =
        Error
          {
            index = i;
            label = d.d_label;
            seed = d.d_seed;
            replay = d.d_replay;
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
        | exception Breach kind -> fail kind
        | exception Breach_traced (kind, trace) -> fail ~trace kind
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

let map_list ?jobs ?budget ?describe f xs =
  Array.to_list (map ?jobs ?budget ?describe f (Array.of_list xs))

let protect ?budget ?descriptor f =
  let describe =
    match descriptor with Some d -> Some (fun _ () -> d) | None -> None
  in
  (map ~jobs:1 ?budget ?describe (fun () -> f ()) [| () |]).(0)

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

(* ------------------------------------------------------------------ *)
(* Content-addressed caching layer over run / run_net / map.           *)
(* ------------------------------------------------------------------ *)

module Cached = struct
  (* Engine-outcome codec. Tokens are space-separated; the two array
     fields come first and use "." when empty so the token count is
     fixed. Decisions are comma-joined with "-" for None; faulty is a
     0/1 character string. *)
  let outcome_to_string (o : Sim.Engine.outcome) =
    let dec =
      if Array.length o.Sim.Engine.decisions = 0 then "."
      else
        String.concat ","
          (Array.to_list
             (Array.map
                (function None -> "-" | Some v -> string_of_int v)
                o.Sim.Engine.decisions))
    in
    let fau =
      if Array.length o.Sim.Engine.faulty = 0 then "."
      else
        String.init
          (Array.length o.Sim.Engine.faulty)
          (fun i -> if o.Sim.Engine.faulty.(i) then '1' else '0')
    in
    Printf.sprintf "%s %s %d %s %d %d %d %d %d %d" dec fau
      o.Sim.Engine.rounds_total
      (match o.Sim.Engine.decided_round with
      | None -> "-"
      | Some r -> string_of_int r)
      o.Sim.Engine.messages_sent o.Sim.Engine.bits_sent
      o.Sim.Engine.messages_omitted o.Sim.Engine.rand_calls
      o.Sim.Engine.rand_bits o.Sim.Engine.faults_used

  let outcome_of_string s =
    match String.split_on_char ' ' s with
    | [ dec; fau; rt; dr; ms; bs; mo; rc; rb; fu ] ->
        let decisions =
          if dec = "." then [||]
          else
            Array.of_list
              (List.map
                 (function "-" -> None | v -> Some (int_of_string v))
                 (String.split_on_char ',' dec))
        in
        let faulty =
          if fau = "." then [||]
          else
            Array.init (String.length fau) (fun i ->
                match fau.[i] with
                | '1' -> true
                | '0' -> false
                | _ -> failwith "faulty")
        in
        Some
          {
            Sim.Engine.decisions;
            faulty;
            rounds_total = int_of_string rt;
            decided_round =
              (if dr = "-" then None else Some (int_of_string dr));
            messages_sent = int_of_string ms;
            bits_sent = int_of_string bs;
            messages_omitted = int_of_string mo;
            rand_calls = int_of_string rc;
            rand_bits = int_of_string rb;
            faults_used = int_of_string fu;
          }
    | _ -> None

  let ints_to_token = function
    | [] -> "."
    | l -> String.concat "," (List.map string_of_int l)

  let ints_of_token = function
    | "." -> []
    | s -> List.map int_of_string (String.split_on_char ',' s)

  (* Degradation codec: Net.Spec.to_string is canonical (round-trips
     through of_string) and contains no spaces, so it is a safe leading
     token. *)
  let degradation_to_string (d : Net.Degradation.t) =
    Printf.sprintf "%s %d %d %d %d %d %d %d %d %d %d %s %s %s %s %d %b"
      (Net.Spec.to_string d.Net.Degradation.spec)
      d.Net.Degradation.attempts d.Net.Degradation.retransmits
      d.Net.Degradation.drops d.Net.Degradation.dups d.Net.Degradation.delays
      d.Net.Degradation.stalls d.Net.Degradation.residual
      d.Net.Degradation.rounds d.Net.Degradation.active_rounds
      d.Net.Degradation.slots
      (ints_to_token (Array.to_list d.Net.Degradation.induced_per_pid))
      (ints_to_token d.Net.Degradation.induced_faulty)
      (ints_to_token d.Net.Degradation.adversarial_faulty)
      (ints_to_token d.Net.Degradation.effective_faulty)
      d.Net.Degradation.t_max d.Net.Degradation.beyond_model

  let degradation_of_string s =
    match String.split_on_char ' ' s with
    | [ spec; at; rt; dr; du; de; st; rs; ro; ar; sl; ipp; ind; adv; eff; tm;
        bm ] -> (
        match Net.Spec.of_string spec with
        | Error _ -> None
        | Ok spec ->
            Some
              {
                Net.Degradation.spec;
                attempts = int_of_string at;
                retransmits = int_of_string rt;
                drops = int_of_string dr;
                dups = int_of_string du;
                delays = int_of_string de;
                stalls = int_of_string st;
                residual = int_of_string rs;
                rounds = int_of_string ro;
                active_rounds = int_of_string ar;
                slots = int_of_string sl;
                induced_per_pid = Array.of_list (ints_of_token ipp);
                induced_faulty = ints_of_token ind;
                adversarial_faulty = ints_of_token adv;
                effective_faulty = ints_of_token eff;
                t_max = int_of_string tm;
                beyond_model = bool_of_string bm;
              })
    | _ -> None

  let net_to_string (o, d) =
    outcome_to_string o ^ "\n" ^ degradation_to_string d

  let net_of_string s =
    match String.index_opt s '\n' with
    | None -> None
    | Some i -> (
        match
          ( outcome_of_string (String.sub s 0 i),
            degradation_of_string
              (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some o, Some d -> Some (o, d)
        | _ -> None)

  let emit_hit trace st key =
    match trace with
    | None -> ()
    | Some sink ->
        Trace.Sink.emit sink
          (Trace.Event.Cache_hit { key = Cache.Store.digest_key st key })

  (* Only successes are cached: failures and degraded runs must re-run
     (and re-report) every time — a quarantine served from a cache would
     hide a flaky environment. An undecodable payload (torn or
     hand-edited object: the decoder returns None or raises) is dropped
     by the lookup and recomputed once. *)
  let run ?on_round ?trace ?link ?budget ?store ~key proto cfg ~adversary
      ~inputs =
    let fresh () = run ?on_round ?trace ?link ?budget proto cfg ~adversary ~inputs in
    match store with
    | None -> fresh ()
    | Some st -> (
        match Cache.Store.lookup st ~decode:outcome_of_string key with
        | Some o ->
            emit_hit trace st key;
            Ok o
        | None ->
            let r = fresh () in
            (match r with
            | Ok o -> Cache.Store.add st ~key (outcome_to_string o)
            | Error _ -> ());
            r)

  let run_net ?on_round ?trace ?budget ?store ~key ~net proto cfg ~adversary
      ~inputs =
    let fresh () = run_net ?on_round ?trace ?budget ~net proto cfg ~adversary ~inputs in
    match store with
    | None -> fresh ()
    | Some st -> (
        match Cache.Store.lookup st ~decode:net_of_string key with
        | Some od ->
            emit_hit trace st key;
            Ok od
        | None ->
            let r = fresh () in
            (match r with
            | Ok od -> Cache.Store.add st ~key (net_to_string od)
            | Error _ -> ());
            r)

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
        let enc, decode = codec in
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
            ~on_ok:(fun i v -> Cache.Store.add st ~key:(key xs.(i)) (enc v))
            f xs misses
        in
        let results = Array.map (Option.map Result.ok) cached in
        Array.iteri (fun j r -> results.(misses.(j)) <- Some r) fresh;
        Array.map Option.get results
end
