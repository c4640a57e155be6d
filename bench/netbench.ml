(* kind="net" experiment: message inflation and effective-round overhead of
   the lossy-link transport (lib/net) vs. loss rate, for three protocols
   spanning the registry — flood (constant-round), dolev-strong (t+1
   rounds) and optimal-omissions (the paper's Algorithm 1). The retry
   budget is sized so every swept loss rate is fully masked (residual = 0,
   no induced faults); the degradation path itself is exercised by the CLI
   soak job and test/test_net.ml. *)

open Bench_util

(* [id] is the registry id: a run is the [Run_spec] of (id, n, t), whose
   builder sizes max_rounds *)
type case = { id : string; n : int; t : int }

let cases ~quick =
  [
    { id = "flood"; n = (if quick then 32 else 48); t = 4 };
    { id = "dolev-strong"; n = (if quick then 16 else 24); t = 2 };
    {
      id = "optimal";
      n = (if quick then 31 else 62);
      t = (if quick then 1 else 2);
    };
  ]

type net_measure = {
  rounds : int;
  decided : bool;
  messages : int;  (** sent, the engine's count *)
  delivered : int;  (** exchanges the transport actually carried *)
  attempts : int;
  retransmits : int;
  residual : int;
  induced : int;
  slots : int;
  net_rounds : int;
}

let nm_codec =
  Cache.Codec.(
    conv
      (fun m ->
        ( (m.rounds, m.decided, m.messages),
          (m.delivered, m.attempts, m.retransmits),
          (m.residual, m.induced, (m.slots, m.net_rounds)) ))
      (fun ( (rounds, decided, messages),
             (delivered, attempts, retransmits),
             (residual, induced, (slots, net_rounds)) ) ->
        { rounds; decided; messages; delivered; attempts; retransmits;
          residual; induced; slots; net_rounds })
      (triple (triple int bool int) (triple int int int)
         (triple int int (pair int int))))

(* The sweep's base spec: --net on bench/main.exe overrides it; the sweep
   then varies only the drop rate. retries=8 masks drop=0.2 with residual
   probability ~(0.36)^9 per exchange — comfortably below one residual per
   campaign, so the experiment measures overhead, not degradation. *)
let base_spec () =
  match !net_base with
  | Some s -> s
  | None -> { Net.Spec.default with Net.Spec.retries = 8 }

(* the run a point makes, and the replay line its quarantine prints *)
let run_spec case drop seed =
  Run_spec.make ~protocol:case.id ~n:case.n ~t_max:case.t ~seed
    ~net:{ (base_spec ()) with Net.Spec.drop }
    ~budget:!budget ()

(* One lossy-link run under the bench's observers, so a quarantined run
   ships its trace tail with its replay line. *)
let run_case case drop seed =
  let spec = run_spec case drop seed in
  let (o, d), _ =
    observed ~replay:(Some (Run_spec.to_command spec)) (fun trace ->
        Run_spec.execute ?trace spec)
  in
  (* a run over a net always carries its report *)
  let d = Option.get d in
  {
    rounds =
      (match o.Sim.Engine.decided_round with
      | Some r -> r
      | None -> o.Sim.Engine.rounds_total);
    decided = o.Sim.Engine.decided_round <> None;
    messages = o.Sim.Engine.messages_sent;
    delivered = o.Sim.Engine.messages_sent - o.Sim.Engine.messages_omitted;
    attempts = d.Net.Degradation.attempts;
    retransmits = d.Net.Degradation.retransmits;
    residual = d.Net.Degradation.residual;
    induced = List.length d.Net.Degradation.induced_faulty;
    slots = d.Net.Degradation.slots;
    net_rounds = d.Net.Degradation.active_rounds;
  }

let net ~quick () =
  section "NET: lossy-link transport — inflation and round overhead vs loss";
  Printf.printf
    "Each exchange is data + ack with retransmit/backoff (retries=%d); a \
     fault-free\nexchange costs 2 virtual sub-slots, so overhead 1.00 means \
     no recovery cost.\nResidual losses (and induced omission faults) must \
     stay 0 at every swept rate.\n"
    (base_spec ()).Net.Spec.retries;
  let drops = if quick then [ 0.0; 0.1 ] else [ 0.0; 0.05; 0.1; 0.2 ] in
  let seeds = Bench_util.seed_list (if quick then [ 1; 2 ] else [ 1; 2; 3 ]) in
  List.iter
    (fun case ->
      subsection
        (Printf.sprintf "%s, n = %d, t = %d, adversary = none" case.id case.n
           case.t);
      row "%6s %8s %10s %10s %8s %10s %9s %9s %8s\n" "drop" "rounds" "msgs"
        "attempts" "retx" "inflation" "overhead" "residual" "induced";
      let per_drop =
        sweep ~codec:nm_codec
          (* the full transport spec plus (n, t) in the point: quick and
             full campaigns size the cases differently and --net rebases
             the sweep, and none of those runs may share a cache entry *)
          ~point:(fun drop ->
            Printf.sprintf "%s/n=%d/t=%d/%s" case.id case.n case.t
              (Net.Spec.to_string { (base_spec ()) with Net.Spec.drop }))
          ~params:drops ~seeds
          (fun drop seed -> run_case case drop seed)
      in
      List.iter
        (fun (drop, ms) ->
          let label = Printf.sprintf "%s drop=%g" case.id drop in
          match ms with
          | [] -> skip_point ~label ~reason:"no surviving runs (all quarantined)"
          | ms ->
              let k = float_of_int (List.length ms) in
              let favg g =
                List.fold_left (fun a m -> a +. float_of_int (g m)) 0. ms /. k
              in
              let isum g = List.fold_left (fun a m -> a + g m) 0 ms in
              let attempts = favg (fun m -> m.attempts) in
              let delivered = favg (fun m -> m.delivered) in
              let inflation =
                if delivered > 0. then attempts /. delivered else 1.
              in
              let overhead =
                let slots = favg (fun m -> m.slots) in
                let nr = favg (fun m -> m.net_rounds) in
                if nr > 0. then slots /. (2. *. nr) else 1.
              in
              let residual = isum (fun m -> m.residual) in
              let induced = isum (fun m -> m.induced) in
              row "%6g %8.1f %10.0f %10.0f %8.0f %10.3f %9.2f %9d %8d\n" drop
                (favg (fun m -> m.rounds))
                (favg (fun m -> m.messages))
                attempts
                (favg (fun m -> m.retransmits))
                inflation overhead residual induced;
              Out.emit ~kind:"net"
                [
                  ("protocol", Out.S case.id);
                  ("n", Out.I case.n);
                  ("t", Out.I case.t);
                  ("drop", Out.F drop);
                  ("retries", Out.I (base_spec ()).Net.Spec.retries);
                  ( "spec",
                    Out.S
                      (Net.Spec.to_string
                         { (base_spec ()) with Net.Spec.drop }) );
                  ("seeds", Out.I (List.length ms));
                  ("rounds", Out.F (favg (fun m -> m.rounds)));
                  ("messages", Out.F (favg (fun m -> m.messages)));
                  ("attempts", Out.F attempts);
                  ("retransmits", Out.F (favg (fun m -> m.retransmits)));
                  ("inflation", Out.F inflation);
                  ("slots_per_round", Out.F (overhead *. 2.));
                  ("overhead", Out.F overhead);
                  ("residual", Out.I residual);
                  ("induced_faults", Out.I induced);
                ];
              if residual > 0 || induced > 0 then
                Printf.printf
                  "  warning (%s): %d residual losses / %d induced faults — \
                   raise retries\n"
                  label residual induced)
        per_drop)
    (cases ~quick)
