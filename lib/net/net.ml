(* Lossy-link transport layer: seeded link-fault models, an ack/retransmit
   synchronizer recovering the synchronous round abstraction, and the
   graceful degradation of residual losses into induced omission faults.
   See net.mli for the model and the soundness condition. *)

(* ------------------------------------------------------------------ *)
(* Link-fault specification and its command-line syntax.               *)
(* ------------------------------------------------------------------ *)

module Spec = struct
  type t = {
    drop : float;
    dup : float;
    delay : float;
    delay_max : int;
    stall : float;
    stall_len : int;
    burst_to_bad : float;
    burst_to_good : float;
    burst_drop : float;
    retries : int;
    backoff_base : int;
    backoff_cap : int;
  }

  let default =
    {
      drop = 0.;
      dup = 0.;
      delay = 0.;
      delay_max = 2;
      stall = 0.;
      stall_len = 1;
      burst_to_bad = 0.;
      burst_to_good = 0.5;
      burst_drop = 0.5;
      retries = 4;
      backoff_base = 1;
      backoff_cap = 8;
    }

  let zero_fault s =
    s.drop = 0. && s.dup = 0. && s.delay = 0. && s.stall = 0.
    && s.burst_to_bad = 0.

  let err fmt = Printf.ksprintf (fun m -> Error ("net spec: " ^ m)) fmt

  let prob key v =
    match float_of_string_opt v with
    | None -> err "%s: not a number (got %S)" key v
    | Some p when p < 0. || p > 1. ->
        err "%s: probability must be within [0,1] (got %s)" key v
    | Some p -> Ok p

  let count key ~least v =
    match int_of_string_opt v with
    | None -> err "%s: not an integer (got %S)" key v
    | Some k when k < least -> err "%s: must be >= %d (got %d)" key least k
    | Some k -> Ok k

  let of_string str =
    let ( let* ) = Result.bind in
    let field acc part =
      let* acc = acc in
      match String.index_opt part '=' with
      | None -> err "missing '=' in %S" part
      | Some i ->
          let key = String.sub part 0 i in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          let sub = String.split_on_char ':' v in
          (match (key, sub) with
          | "drop", [ p ] ->
              let* p = prob "drop" p in
              Ok { acc with drop = p }
          | "dup", [ p ] ->
              let* p = prob "dup" p in
              Ok { acc with dup = p }
          | "delay", [ p ] ->
              let* p = prob "delay" p in
              Ok { acc with delay = p }
          | "delay", [ p; m ] ->
              let* p = prob "delay" p in
              let* m = count "delay" ~least:1 m in
              Ok { acc with delay = p; delay_max = m }
          | "stall", [ p ] ->
              let* p = prob "stall" p in
              Ok { acc with stall = p }
          | "stall", [ p; l ] ->
              let* p = prob "stall" p in
              let* l = count "stall" ~least:1 l in
              Ok { acc with stall = p; stall_len = l }
          | "burst", [ gb; bg; pd ] ->
              let* gb = prob "burst" gb in
              let* bg = prob "burst" bg in
              let* pd = prob "burst" pd in
              Ok
                {
                  acc with
                  burst_to_bad = gb;
                  burst_to_good = bg;
                  burst_drop = pd;
                }
          | "retries", [ k ] ->
              let* k = count "retries" ~least:0 k in
              Ok { acc with retries = k }
          | "backoff", [ b ] ->
              let* b = count "backoff" ~least:1 b in
              Ok { acc with backoff_base = b; backoff_cap = max b acc.backoff_cap }
          | "backoff", [ b; c ] ->
              let* b = count "backoff" ~least:1 b in
              let* c = count "backoff" ~least:1 c in
              if c < b then err "backoff: cap %d < base %d" c b
              else Ok { acc with backoff_base = b; backoff_cap = c }
          | ("drop" | "dup" | "delay" | "stall" | "burst" | "retries" | "backoff"), _
            ->
              err "%s: wrong number of ':'-separated fields in %S" key v
          | _ -> err "unknown key %S" key)
    in
    match String.trim str with
    | "" -> err "empty spec"
    | s -> List.fold_left field (Ok default) (String.split_on_char ',' s)

  let fl x = Printf.sprintf "%.12g" x

  let to_string s =
    let b = Buffer.create 64 in
    let add fmt =
      Printf.ksprintf
        (fun part ->
          if Buffer.length b > 0 then Buffer.add_char b ',';
          Buffer.add_string b part)
        fmt
    in
    if s.drop > 0. then add "drop=%s" (fl s.drop);
    if s.dup > 0. then add "dup=%s" (fl s.dup);
    if s.delay > 0. then add "delay=%s:%d" (fl s.delay) s.delay_max;
    if s.stall > 0. then add "stall=%s:%d" (fl s.stall) s.stall_len;
    if s.burst_to_bad > 0. then
      add "burst=%s:%s:%s" (fl s.burst_to_bad) (fl s.burst_to_good)
        (fl s.burst_drop);
    if s.retries <> default.retries then add "retries=%d" s.retries;
    if s.backoff_base <> default.backoff_base || s.backoff_cap <> default.backoff_cap
    then add "backoff=%d:%d" s.backoff_base s.backoff_cap;
    if Buffer.length b = 0 then "drop=0" else Buffer.contents b

  let pp ppf s = Fmt.string ppf (to_string s)
end

(* ------------------------------------------------------------------ *)
(* Transport: fault models + ack/retransmit synchronizer.              *)
(* ------------------------------------------------------------------ *)

module Transport = struct
  type stats = {
    attempts : int;
    retransmits : int;
    drops : int;
    dups : int;
    delays : int;
    stalls : int;
    residual : int;
    residual_edges : (int * int * int) list;
    rounds : int;
    active_rounds : int;
    slots : int;
  }

  type t = {
    spec : Spec.t;
    n : int;
    mutable rand : Sim.Rand.t;
    stall_left : int array;  (** remaining stalled rounds per pid *)
    ge_bad : Bytes.t;  (** Gilbert–Elliott state per directed link, n*n *)
    mutable attempts : int;
    mutable retransmits : int;
    mutable drops : int;
    mutable dups : int;
    mutable delays : int;
    mutable stalls : int;
    mutable residual : int;
    mutable residual_rev : (int * int * int) list;
    mutable slots : int;  (** committed virtual sub-slots of past rounds *)
    mutable round_slots : int;  (** slowest exchange of the current round *)
    mutable rounds : int;
    mutable active_rounds : int;  (** rounds that carried >= 1 exchange *)
  }

  (* The transport's randomness rides a private stream salted off the run
     seed: it never touches the run's counted source, so the protocol's
     randomness-complexity metrics (rand_calls / rand_bits) are identical
     with and without a lossy link. *)
  let salt = 0x6e6574 (* "net" *)

  let stream seed = Sim.Rand.create ~seed:(Int64.of_int (seed + salt)) ()

  let create spec (cfg : Sim.Config.t) =
    let n = cfg.Sim.Config.n in
    {
      spec;
      n;
      rand = stream cfg.Sim.Config.seed;
      stall_left = Array.make n 0;
      ge_bad = Bytes.make (n * n) '\000';
      attempts = 0;
      retransmits = 0;
      drops = 0;
      dups = 0;
      delays = 0;
      stalls = 0;
      residual = 0;
      residual_rev = [];
      slots = 0;
      round_slots = 0;
      rounds = 0;
      active_rounds = 0;
    }

  let reset t ~seed =
    t.rand <- stream seed;
    Array.fill t.stall_left 0 t.n 0;
    Bytes.fill t.ge_bad 0 (t.n * t.n) '\000';
    t.attempts <- 0;
    t.retransmits <- 0;
    t.drops <- 0;
    t.dups <- 0;
    t.delays <- 0;
    t.stalls <- 0;
    t.residual <- 0;
    t.residual_rev <- [];
    t.slots <- 0;
    t.round_slots <- 0;
    t.rounds <- 0;
    t.active_rounds <- 0

  (* Zero-probability faults must not consume randomness, so a spec with all
     probabilities at 0 leaves the stream untouched and the run is
     draw-for-draw identical to a linkless one. *)
  let hit t p = p > 0. && Sim.Rand.float t.rand < p

  let begin_round t ~round =
    ignore round;
    t.slots <- t.slots + t.round_slots;
    if t.round_slots > 0 then t.active_rounds <- t.active_rounds + 1;
    t.round_slots <- 0;
    t.rounds <- t.rounds + 1;
    if t.spec.Spec.stall > 0. then
      for pid = 0 to t.n - 1 do
        if t.stall_left.(pid) > 0 then
          t.stall_left.(pid) <- t.stall_left.(pid) - 1
        else if hit t t.spec.Spec.stall then begin
          t.stall_left.(pid) <- t.spec.Spec.stall_len;
          t.stalls <- t.stalls + 1
        end
      done

  (* One directed leg (data or ack). Stalled endpoints lose the leg without
     a draw — a stall models the whole process going quiet, not the link.
     With a burst model configured, the per-link Gilbert–Elliott chain steps
     once per leg and picks the loss probability of the state it lands in. *)
  let leg_lost t ~src ~dst =
    if t.stall_left.(src) > 0 || t.stall_left.(dst) > 0 then true
    else
      let p =
        if t.spec.Spec.burst_to_bad > 0. then begin
          let idx = (src * t.n) + dst in
          let bad = Bytes.get t.ge_bad idx = '\001' in
          let bad' =
            if bad then not (hit t t.spec.Spec.burst_to_good)
            else hit t t.spec.Spec.burst_to_bad
          in
          Bytes.set t.ge_bad idx (if bad' then '\001' else '\000');
          if bad' then t.spec.Spec.burst_drop else t.spec.Spec.drop
        end
        else t.spec.Spec.drop
      in
      hit t p

  (* One synchronized (src, dst, round) exchange: data leg out, ack leg
     back, retransmit with capped exponential backoff until acked or the
     retry budget is spent. Virtual time: a fault-free exchange costs 2
     sub-slots (data + ack window); delays and backoffs add to that; the
     round's cost is the slowest exchange (all exchanges of a round proceed
     in parallel).

     Two-generals residue: when the receiver got a copy but every ack was
     lost, the exchange is still [Delivered] — the receiver's state is what
     the round abstraction cares about; the sender's uncertainty only costs
     it the retransmissions. [Lost] therefore means the receiver never got
     any copy, and only those residuals become induced omissions. *)
  let transmit t ~trace ~round ~src ~dst =
    let spec = t.spec in
    let emit ev =
      match trace with None -> () | Some s -> Trace.Sink.emit s ev
    in
    let backoff k =
      min spec.Spec.backoff_cap (spec.Spec.backoff_base lsl (k - 1))
    in
    let time = ref 0 in
    let got = ref false in
    let acked = ref false in
    let k = ref 0 in
    while (not !acked) && !k <= spec.Spec.retries do
      incr k;
      let a = !k in
      t.attempts <- t.attempts + 1;
      if a > 1 then begin
        t.retransmits <- t.retransmits + 1;
        let b = backoff (a - 1) in
        time := !time + b;
        emit (Trace.Event.Retransmit { round; src; dst; attempt = a; backoff = b })
      end;
      let late = ref 0 in
      let data_ok =
        if !got then true
        else if leg_lost t ~src ~dst then begin
          t.drops <- t.drops + 1;
          emit (Trace.Event.Drop { round; src; dst; attempt = a });
          false
        end
        else begin
          if hit t spec.Spec.dup then begin
            t.dups <- t.dups + 1;
            emit (Trace.Event.Dup { round; src; dst; copies = 2 })
          end;
          if hit t spec.Spec.delay then begin
            let slots = 1 + Sim.Rand.int_below t.rand spec.Spec.delay_max in
            t.delays <- t.delays + 1;
            late := slots;
            emit (Trace.Event.Delay { round; src; dst; slots })
          end;
          true
        end
      in
      (* data slot + ack window: the sender waits the full window before
         retrying, so a failed attempt costs the same 2 sub-slots. *)
      time := !time + 2 + !late;
      if data_ok then begin
        got := true;
        if leg_lost t ~src:dst ~dst:src then begin
          t.drops <- t.drops + 1;
          emit (Trace.Event.Drop { round; src = dst; dst = src; attempt = a })
        end
        else begin
          acked := true;
          (* only recovery is worth an event: a fault-free first-attempt
             exchange emits nothing, keeping zero-fault traces byte-identical
             to linkless runs *)
          if a > 1 then emit (Trace.Event.Ack { round; src; dst; attempt = a })
        end
      end
    done;
    if !time > t.round_slots then t.round_slots <- !time;
    if !got then Sim.Link_intf.Delivered
    else begin
      t.residual <- t.residual + 1;
      t.residual_rev <- (round, src, dst) :: t.residual_rev;
      emit (Trace.Event.Degrade { round; src; dst; attempts = !k });
      Sim.Link_intf.Lost
    end

  let stats t =
    {
      attempts = t.attempts;
      retransmits = t.retransmits;
      drops = t.drops;
      dups = t.dups;
      delays = t.delays;
      stalls = t.stalls;
      residual = t.residual;
      residual_edges = List.rev t.residual_rev;
      rounds = t.rounds;
      active_rounds =
        (t.active_rounds + if t.round_slots > 0 then 1 else 0);
      slots = t.slots + t.round_slots;
    }

  let spec t = t.spec

  let link t =
    {
      Sim.Link_intf.name = "net:" ^ Spec.to_string t.spec;
      reset = (fun ~seed -> reset t ~seed);
      begin_round = (fun ~round -> begin_round t ~round);
      transmit =
        (fun ~trace ~round ~src ~dst -> transmit t ~trace ~round ~src ~dst);
    }
end

(* ------------------------------------------------------------------ *)
(* Degradation: residual losses as an induced omission adversary.      *)
(* ------------------------------------------------------------------ *)

module Degradation = struct
  type t = {
    spec : Spec.t;
    attempts : int;
    retransmits : int;
    drops : int;
    dups : int;
    delays : int;
    stalls : int;
    residual : int;
    rounds : int;
    active_rounds : int;
    slots : int;
    induced_per_pid : int array;
    induced_faulty : int list;
    adversarial_faulty : int list;
    effective_faulty : int list;
    t_max : int;
    beyond_model : bool;
  }

  (* Smallest-effort vertex cover of the residual edges: repeatedly blame
     the endpoint touching the most uncovered edges (lowest pid on ties).
     A cover is the right attribution because in the omission model every
     lost message must have a faulty endpoint — the cover is the smallest
     induced fault set that explains all residual losses. *)
  let greedy_cover ~n edges =
    let deg = Array.make n 0 in
    List.iter
      (fun (s, d) ->
        deg.(s) <- deg.(s) + 1;
        deg.(d) <- deg.(d) + 1)
      edges;
    let rec go edges cover =
      if edges = [] then List.rev cover
      else begin
        let best = ref 0 in
        for p = 1 to n - 1 do
          if deg.(p) > deg.(!best) then best := p
        done;
        let b = !best in
        let keep, gone = List.partition (fun (s, d) -> s <> b && d <> b) edges in
        List.iter
          (fun (s, d) ->
            deg.(s) <- deg.(s) - 1;
            deg.(d) <- deg.(d) - 1)
          gone;
        go keep (b :: cover)
      end
    in
    go edges []

  let of_transport tr ~faulty ~t_max =
    let s = Transport.stats tr in
    let n = Array.length faulty in
    let induced_per_pid = Array.make n 0 in
    List.iter
      (fun (_, src, dst) ->
        induced_per_pid.(src) <- induced_per_pid.(src) + 1;
        induced_per_pid.(dst) <- induced_per_pid.(dst) + 1)
      s.Transport.residual_edges;
    (* residual edges with an adversary-faulty endpoint are already covered
       by the configured adversary's fault set; only clean-edge losses
       induce new faults *)
    let need_blame =
      List.filter_map
        (fun (_, src, dst) ->
          if faulty.(src) || faulty.(dst) then None else Some (src, dst))
        s.Transport.residual_edges
    in
    let induced_faulty = greedy_cover ~n need_blame in
    let adversarial_faulty =
      Array.to_list
        (Array.of_seq
           (Seq.filter_map
              (fun i -> if faulty.(i) then Some i else None)
              (Seq.init n Fun.id)))
    in
    let effective_faulty =
      List.sort_uniq compare (adversarial_faulty @ induced_faulty)
    in
    {
      spec = Transport.spec tr;
      attempts = s.Transport.attempts;
      retransmits = s.Transport.retransmits;
      drops = s.Transport.drops;
      dups = s.Transport.dups;
      delays = s.Transport.delays;
      stalls = s.Transport.stalls;
      residual = s.Transport.residual;
      rounds = s.Transport.rounds;
      active_rounds = s.Transport.active_rounds;
      slots = s.Transport.slots;
      induced_per_pid;
      induced_faulty;
      adversarial_faulty;
      effective_faulty;
      t_max;
      beyond_model = List.length effective_faulty > t_max;
    }

  let to_json d =
    let ints l = Jsonl.L (List.map (fun i -> Jsonl.I i) l) in
    Jsonl.(
      obj
        [
          ("spec", S (Spec.to_string d.spec));
          ("attempts", I d.attempts);
          ("retransmits", I d.retransmits);
          ("drops", I d.drops);
          ("dups", I d.dups);
          ("delays", I d.delays);
          ("stalls", I d.stalls);
          ("residual", I d.residual);
          ("rounds", I d.rounds);
          ("active_rounds", I d.active_rounds);
          ("slots", I d.slots);
          ("induced_faulty", ints d.induced_faulty);
          ("adversarial_faulty", ints d.adversarial_faulty);
          ("effective_faulty", ints d.effective_faulty);
          ("t_max", I d.t_max);
          ("beyond_model", B d.beyond_model);
        ])

  let pp ppf d =
    Fmt.pf ppf
      "net: attempts=%d retransmits=%d residual=%d induced=%a effective=%d/%d \
       t=%d%s slots=%d rounds=%d"
      d.attempts d.retransmits d.residual
      Fmt.(brackets (list ~sep:comma int))
      d.induced_faulty
      (List.length d.effective_faulty)
      (match d.induced_per_pid with a -> Array.length a)
      d.t_max
      (if d.beyond_model then " BEYOND MODEL" else "")
      d.slots d.rounds
end
