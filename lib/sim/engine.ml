(** Synchronous round engine with an adaptive full-information omission
    adversary.

    Round structure (Section 2 of the paper):
    + every process runs its local-computation phase (possibly drawing from
      its counted random source) and hands its outgoing messages to the
      engine;
    + the adversary inspects the complete system state — including the
      random bits just drawn and the pending messages — and may corrupt new
      processes (within its lifetime budget [t_max]) and omit any subset of
      messages incident to faulty processes;
    + the surviving messages are delivered, to be consumed at the beginning
      of the next round.

    The engine enforces the model: omissions between two non-faulty
    processes, or corruptions beyond the budget, raise {!Illegal_plan}.

    Allocation discipline: the hot path runs on reusable buffers — per-pid
    {!Mailbox.t} outboxes/inboxes reset by count, an envelope arena sized to
    the high-water mark whose records are refreshed in place, one adversary
    {!View.t} whose observation and fault-snapshot arrays are reused across
    rounds, and a single derived random stream reseeded per step. Steady
    state allocates O(n) words per round (fresh [obs_core] observations)
    instead of O(messages). *)

exception Illegal_plan of string

let illegal fmt = Fmt.kstr (fun s -> raise (Illegal_plan s)) fmt

type outcome = {
  decisions : int option array;
  faulty : bool array;  (** final fault set *)
  rounds_total : int;  (** rounds actually executed *)
  decided_round : int option;
      (** round by whose local phase every non-faulty process had decided *)
  messages_sent : int;
  bits_sent : int;
  messages_omitted : int;
  rand_calls : int;
  rand_bits : int;
  faults_used : int;
}

type progress = {
  p_round : int;  (** rounds executed so far *)
  p_messages : int;
  p_bits : int;
  p_rand_calls : int;
  p_rand_bits : int;
}

(* Tracing state, allocated once per run and only when a sink is supplied:
   the previous observable state of every process (so Phase/Decide events
   fire on transitions, not every round) and the counter values at the start
   of the current round (so Round_end carries per-round deltas). *)
type tracer = {
  sink : Trace.Sink.t;
  prev_operative : bool array;
  prev_candidate : int option array;
  prev_decided : int option array;
  mutable r0_messages : int;
  mutable r0_bits : int;
  mutable r0_omitted : int;
  mutable r0_rand_calls : int;
  mutable r0_rand_bits : int;
}

let all_nonfaulty_decided outcome =
  let n = Array.length outcome.decisions in
  let ok = ref true in
  let pid = ref 0 in
  while !ok && !pid < n do
    if (not outcome.faulty.(!pid)) && outcome.decisions.(!pid) = None then
      ok := false;
    incr pid
  done;
  !ok

(** Decision of the non-faulty processes if they agree, [None] otherwise. *)
let agreed_decision outcome =
  let n = Array.length outcome.decisions in
  let value = ref None and ok = ref true in
  let pid = ref 0 in
  while !ok && !pid < n do
    if not outcome.faulty.(!pid) then
      (match (outcome.decisions.(!pid), !value) with
      | None, _ -> ok := false
      | Some v, None -> value := Some v
      | Some v, Some w -> if v <> w then ok := false);
    incr pid
  done;
  if !ok then !value else None

(** A reusable engine instance: every buffer the round loop needs —
    mailboxes, envelope arena, adversary view, omission scratch — allocated
    once and reused across runs. Benches and sweeps that execute many runs
    of the same (protocol, cfg) pair amortise the buffer construction away;
    runs through an instance are bit-identical to fresh {!run} runs
    because every run resets all per-run state before its first
    round. *)
type instance = {
  run_i :
    ?on_round:(round:int -> View.envelope array -> unit) ->
    ?stop:(progress -> bool) ->
    ?trace:Trace.Sink.t ->
    ?link:Link_intf.t ->
    adversary:Adversary_intf.t ->
    inputs:int array ->
    unit ->
    outcome;
}

(* The engine proper. Event and metric ordering deliberately reproduces
   the original list-based engine bit for bit, so traces and outcomes stay
   comparable with every earlier version:
   - the envelope array groups senders in ascending pid order, and within a
     sender lists messages in *reverse* emission order (the old engine
     consed each outbox onto an accumulator);
   - omission decisions, metric counters and Omit/Deliver events run per
     sender in ascending pid order and *forward* emission order (the old
     delivery loop walked the outbox lists head-first);
   - inboxes arrive sorted by ascending sender, equal senders keeping
     reverse emission order (cons-then-stable-sort in the old engine; here
     the delivery pass pushes survivors back-to-front so the mailbox comes
     out already sorted). *)
let instance (module P : Protocol_intf.BUFFERED) (cfg : Config.t) : instance =
  let n = cfg.n in
  (* Mailboxes start tiny and grow on demand: a [~hint:n] here would cost
     O(n^2) words before the first round (2n buffers of n slots — ~256 MB
     at n = 4096), paid even by runs whose protocols broadcast through
     segments and never materialise n rows. Instance construction is
     O(n); the few doubling steps on the first heavy round are amortised
     away by reuse. *)
  let inboxes : P.msg Mailbox.t array =
    Array.init n (fun _ -> Mailbox.create ())
  in
  (* Round-shared broadcast table: the fast path delivers a surviving
     broadcast as one table entry instead of one row per destination;
     every inbox merges the table back in at read time. *)
  let bcast = Mailbox.shared_create () in
  Array.iteri (fun pid ib -> Mailbox.attach_shared ib bcast ~owner:pid) inboxes;
  let outboxes : P.msg Mailbox.t array =
    Array.init n (fun _ -> Mailbox.create ())
  in
  (* One emit / emit_all closure pair per sender, allocated once. The
     destination-range check lives here (not in the arena fill, which is
     now lazy and may never run). *)
  let emits =
    Array.init n (fun pid ->
        let ob = outboxes.(pid) in
        fun dst m ->
          if dst < 0 || dst >= n then
            invalid_arg "Engine.run: message to out-of-range pid";
          Mailbox.push ob ~peer:dst m)
  in
  let emit_alls =
    Array.init n (fun pid ->
        let ob = outboxes.(pid) in
        fun ~lo ~hi ~skip ~desc m ->
          if hi >= lo then begin
            if lo < 0 || hi >= n then
              invalid_arg "Engine.run: message to out-of-range pid";
            Mailbox.push_all ob ~lo ~hi ~skip ~desc m
          end)
  in
  let faulty = Array.make n false in
  let used_randomness = Array.make n false in
  (* Envelope arena: grow-only record pool refreshed in place each round.
     [arena_ensure] grows straight to a known round total so a heavy round
     costs one allocation, not a doubling cascade. *)
  let arena = ref ([||] : View.envelope array) in
  let arena_len = ref 0 in
  let arena_ensure total =
    let cap = Array.length !arena in
    if total > cap then begin
      let cap' = max total (2 * cap) in
      arena :=
        Array.init cap' (fun i ->
            if i < cap then (!arena).(i)
            else { View.src = 0; dst = 0; bits = 0; hint = None })
    end
  in
  let arena_push src dst bits hint =
    if !arena_len = Array.length !arena then arena_ensure (!arena_len + 1);
    let e = (!arena).(!arena_len) in
    e.View.src <- src;
    e.dst <- dst;
    e.bits <- bits;
    e.hint <- hint;
    incr arena_len
  in
  (* Exact-length window over the arena handed to the adversary / [on_round];
     rebuilt only when the round's message count changes (arena growth keeps
     record identity for retained slots, so a cached window stays valid). *)
  let exact = ref ([||] : View.envelope array) in
  let arena_window () =
    if !arena_len = 0 then [||] (* the static empty atom, no allocation *)
    else if !arena_len = Array.length !arena then !arena
    else begin
      if Array.length !exact <> !arena_len then
        exact := Array.sub !arena 0 !arena_len;
      !exact
    end
  in
  (* The single adversary view, refreshed in place each round. *)
  let view_obs =
    Array.init n (fun pid ->
        {
          View.pid;
          core = { View.candidate = None; operative = false; decided = None };
          used_randomness = false;
        })
  in
  let view =
    {
      View.round = 0;
      cfg;
      faulty = Array.make n false;
      faults_used = 0;
      obs = view_obs;
      envelopes = [||];
      envelopes_ready = true;
      refresh_envelopes = (fun () -> [||]);
    }
  in
  (* Lazy arena fill: expand every outbox — broadcast segments included —
     into envelope records, each sender walked in reverse emission order
     (the ordering note above). Installed as the view's refresher; runs
     at most once per round, and only when someone actually reads the
     envelopes (tracer, [on_round] hook, or an envelope-inspecting
     adversary). *)
  let fill_arena () =
    arena_len := 0;
    let total = ref 0 in
    for pid = 0 to n - 1 do
      total := !total + Mailbox.length outboxes.(pid)
    done;
    arena_ensure !total;
    for pid = 0 to n - 1 do
      Mailbox.riter outboxes.(pid) (fun dst m ->
          arena_push pid dst (max 1 (P.msg_bits m)) (P.msg_hint m))
    done;
    arena_window ()
  in
  view.View.refresh_envelopes <- fill_arena;
  (* Per-sender omission flags, grown to the largest outbox seen. *)
  let omit_scratch = ref Bytes.empty in
  let run_i ?on_round ?stop ?trace ?link ~(adversary : Adversary_intf.t)
      ~(inputs : int array) () : outcome =
    if Array.length inputs <> n then
      invalid_arg "Engine.run: inputs length must equal n";
    Array.iter
      (fun b ->
        if b <> 0 && b <> 1 then invalid_arg "Engine.run: inputs must be bits")
      inputs;
    (* The link layer's per-run state (fault-model channels, retransmit
       stats) is reset from the run seed before anything else happens, so a
       link — like an instance — can be reused across runs purely. *)
    (match link with
    | None -> ()
    | Some l -> l.Link_intf.reset ~seed:cfg.seed);
    let counter = Rand.Counter.create () in
    let root = Rand.create ~counter ~seed:(Int64.of_int cfg.seed) () in
    (* One scratch stream, reseeded per step; shares [root]'s counter. *)
    let step_rand = Rand.derive root 0 in
    let adv_rand = Rand.create ~seed:(Int64.of_int (cfg.seed + 0x5eed)) () in
    let adv = adversary.create cfg adv_rand in
    let states = Array.init n (fun pid -> P.init cfg ~pid ~input:inputs.(pid)) in
    Array.iter Mailbox.clear inboxes;
    Array.iter Mailbox.clear outboxes;
    Mailbox.shared_clear bcast;
    Array.fill faulty 0 n false;
    Array.fill used_randomness 0 n false;
    let faults_used = ref 0 in
    let messages_sent = ref 0 in
    let bits_sent = ref 0 in
    let messages_omitted = ref 0 in
    let decided_round = ref None in
    let rounds_total = ref 0 in
    let tr =
      match trace with
      | None -> None
      | Some sink ->
          Some
            {
              sink;
              prev_operative =
                Array.init n (fun pid -> (P.observe states.(pid)).operative);
              prev_candidate =
                Array.init n (fun pid -> (P.observe states.(pid)).candidate);
              prev_decided =
                Array.init n (fun pid -> (P.observe states.(pid)).decided);
              r0_messages = 0;
              r0_bits = 0;
              r0_omitted = 0;
              r0_rand_calls = 0;
              r0_rand_bits = 0;
            }
    in
    let round = ref 1 in
    let stop_flag = ref false in
    while (not !stop_flag) && !round <= cfg.max_rounds do
      let r = !round in
      rounds_total := r;
      (match tr with
      | None -> ()
      | Some t ->
          t.r0_messages <- !messages_sent;
          t.r0_bits <- !bits_sent;
          t.r0_omitted <- !messages_omitted;
          t.r0_rand_calls <- Rand.Counter.calls counter;
          t.r0_rand_bits <- Rand.Counter.bits counter;
          Trace.Sink.emit t.sink (Trace.Event.Round_start { round = r }));
      (* Phase 1: local computation. *)
      for pid = 0 to n - 1 do
        let calls_before = Rand.Counter.calls counter in
        let bits_before = Rand.Counter.bits counter in
        Mailbox.clear outboxes.(pid);
        Rand.derive_into ~into:step_rand root ((r * n) + pid);
        let state' =
          P.step_into cfg states.(pid) ~round:r ~inbox:inboxes.(pid)
            ~rand:step_rand ~emit:emits.(pid) ~emit_all:emit_alls.(pid)
        in
        states.(pid) <- state';
        used_randomness.(pid) <- Rand.Counter.calls counter > calls_before;
        Mailbox.clear inboxes.(pid);
        match tr with
        | None -> ()
        | Some t ->
            let calls_after = Rand.Counter.calls counter in
            if calls_after > calls_before then
              Trace.Sink.emit t.sink
                (Trace.Event.Coin
                   {
                     round = r;
                     pid;
                     calls = calls_after - calls_before;
                     bits = Rand.Counter.bits counter - bits_before;
                   });
            let obs = P.observe states.(pid) in
            if
              obs.operative <> t.prev_operative.(pid)
              || obs.candidate <> t.prev_candidate.(pid)
            then begin
              t.prev_operative.(pid) <- obs.operative;
              t.prev_candidate.(pid) <- obs.candidate;
              Trace.Sink.emit t.sink
                (Trace.Event.Phase
                   {
                     round = r;
                     pid;
                     operative = obs.operative;
                     candidate = obs.candidate;
                   })
            end;
            (match (t.prev_decided.(pid), obs.decided) with
            | None, Some v ->
                t.prev_decided.(pid) <- Some v;
                Trace.Sink.emit t.sink
                  (Trace.Event.Decide { round = r; pid; value = v })
            | _ -> ())
      done;
      (* Termination is detected on the local phase: deciding is a local act. *)
      let everyone_decided = ref true in
      let pid = ref 0 in
      while !everyone_decided && !pid < n do
        if (not faulty.(!pid)) && (P.observe states.(!pid)).decided = None then
          everyone_decided := false;
        incr pid
      done;
      if !everyone_decided && !decided_round = None then decided_round := Some r;
      (* Phase 2: adversary intervention. The envelope arena is no longer
         filled eagerly: the view refreshes it on first access (the
         tracer and [on_round] force it; an adversary that never reads
         envelopes skips the O(messages) expansion entirely). *)
      view.View.round <- r;
      Array.blit faulty 0 view.View.faulty 0 n;
      view.View.faults_used <- !faults_used;
      for pid = 0 to n - 1 do
        let o = view_obs.(pid) in
        o.View.core <- P.observe states.(pid);
        o.View.used_randomness <- used_randomness.(pid)
      done;
      view.View.envelopes_ready <- false;
      (match on_round with
      | Some f -> f ~round:r (View.envelopes view)
      | None -> ());
      (match tr with
      | None -> ()
      | Some t ->
          Array.iter
            (fun (e : View.envelope) ->
              Trace.Sink.emit t.sink
                (Trace.Event.Send
                   { round = r; src = e.src; dst = e.dst; bits = e.bits;
                     hint = e.hint }))
            (View.envelopes view));
      let plan = adv view in
      List.iter
        (fun pid ->
          if pid < 0 || pid >= n then illegal "corruption of out-of-range pid %d" pid;
          if not faulty.(pid) then begin
            if !faults_used >= cfg.t_max then
              illegal "corruption budget t=%d exceeded at round %d" cfg.t_max r;
            faulty.(pid) <- true;
            incr faults_used;
            match tr with
            | None -> ()
            | Some t ->
                Trace.Sink.emit t.sink (Trace.Event.Corrupt { round = r; pid })
          end)
        plan.new_faults;
      (* Phase 3: communication. Omitted messages still count as sent: the
         sender transmitted them; the adversary suppressed delivery. The
         forward pass decides omissions (in emission order — omission
         predicates may draw randomness per call); the backward pass pushes
         survivors so each destination mailbox comes out sorted by sender.
         Messages the adversary let through additionally cross the [link]
         layer (when one is plugged in): a [Lost] verdict is a residual
         link loss, marked '\002' — dropped like an omission but neither
         checked against the fault set nor counted in [messages_omitted];
         the transport accounts for it as an induced omission fault. *)
      (match link with
      | None -> ()
      | Some l -> l.Link_intf.begin_round ~round:r);
      let fast = (match tr with None -> true | Some _ -> false) && link = None in
      (* Last round's broadcast-table entries were consumed in phase 1;
         the table refills below (fast path only — it stays empty on the
         general path, whose inboxes then iterate as plain rows). *)
      Mailbox.shared_clear bcast;
      (match plan.compiled with
      | Some compiled when fast ->
          (* Mask-blit fast path: no tracer and no link, and the plan
             carries a compiled verdict per sender. Counters update in
             aggregate (one add per entry, broadcast segments unexpanded);
             the only per-destination work left is the inbox push for
             survivors — and the forward legality scan, which preserves
             the exact [Illegal_plan] the general path would raise (the
             first omitted message, in emission order, whose endpoints are
             both non-faulty). *)
          for pid = 0 to n - 1 do
            let ob = outboxes.(pid) in
            let total = Mailbox.length ob in
            if total > 0 then begin
              messages_sent := !messages_sent + total;
              Mailbox.iter_entries ob
                ~point:(fun _dst m ->
                  bits_sent := !bits_sent + max 1 (P.msg_bits m))
                ~seg:(fun ~lo:_ ~hi:_ ~skip:_ ~desc:_ ~size m ->
                  bits_sent := !bits_sent + (size * max 1 (P.msg_bits m)));
              (* A sender whose round is pure wide broadcast delivers
                 through the round-shared table: O(1) per segment instead
                 of one inbox row per destination. Mixed, pointwise or
                 narrow-segment (e.g. one-group) outboxes keep the
                 per-destination blit — every receiver scans the whole
                 table, so only segments covering at least half the
                 network pay for their scan slot — and the routing is
                 all-or-nothing per sender, so table sources and
                 pointwise inbox rows stay disjoint (the merge contract).
                 Segments are appended in reverse emission order — the
                 same per-sender order the pointwise blit produces. *)
              let pure_bcast =
                Mailbox.point_length ob = 0
                && Mailbox.seg_count ob > 0
                && 2 * Mailbox.min_seg_span ob >= n
              in
              match compiled pid with
              | View.Deliver_all ->
                  if pure_bcast then
                    Mailbox.riter_entries ob
                      ~point:(fun _ _ -> assert false)
                      ~seg:(fun ~lo ~hi ~skip ~desc:_ ~size:_ m ->
                        Mailbox.shared_push bcast ~src:pid ~lo ~hi ~skip
                          ~mask:Bytes.empty m)
                  else
                    (* senders ascend and each sender pushes in reverse
                       emission order, so inboxes come out sorted with the
                       same-sender order the legacy engine produced *)
                    Mailbox.rdeliver ob inboxes ~peer:pid
              | View.Omit_all ->
                  if not faulty.(pid) then
                    Mailbox.iter ob (fun dst _m ->
                        if not faulty.(dst) then
                          illegal
                            "omission between non-faulty %d -> %d at round %d"
                            pid dst r);
                  messages_omitted := !messages_omitted + total
              | View.Omit_mask b ->
                  let sender_faulty = faulty.(pid) in
                  Mailbox.iter ob (fun dst _m ->
                      if Bytes.get b dst <> '\000' then begin
                        if (not sender_faulty) && not faulty.(dst) then
                          illegal
                            "omission between non-faulty %d -> %d at round %d"
                            pid dst r;
                        incr messages_omitted
                      end);
                  if pure_bcast then
                    Mailbox.riter_entries ob
                      ~point:(fun _ _ -> assert false)
                      ~seg:(fun ~lo ~hi ~skip ~desc:_ ~size:_ m ->
                        Mailbox.shared_push bcast ~src:pid ~lo ~hi ~skip
                          ~mask:b m)
                  else Mailbox.rdeliver_masked ob inboxes ~peer:pid ~mask:b
            end
          done
      | _ ->
          (* General path: tracer or link present, or a pointwise-only
             plan. Broadcast segments are expanded in place first, then
             the per-message loop runs exactly as the legacy engine did —
             with the omission verdict read from the compiled mask when
             one exists (so traced runs still exercise mask semantics)
             and from the predicate otherwise. *)
          for pid = 0 to n - 1 do
            let ob = outboxes.(pid) in
            Mailbox.flatten ob;
            let len = Mailbox.length ob in
            if len > 0 then begin
              if Bytes.length !omit_scratch < len then
                omit_scratch := Bytes.create len;
              let om = !omit_scratch in
              (* per-sender verdict source: 0 = predicate, 1 = deliver
                 all, 2 = omit all, 3 = mask bytes *)
              let mode, mbytes =
                match plan.compiled with
                | None -> (0, Bytes.empty)
                | Some c -> (
                    match c pid with
                    | View.Deliver_all -> (1, Bytes.empty)
                    | View.Omit_all -> (2, Bytes.empty)
                    | View.Omit_mask b -> (3, b))
              in
              for i = 0 to len - 1 do
                let dst = Mailbox.peer ob i in
                incr messages_sent;
                bits_sent := !bits_sent + max 1 (P.msg_bits (Mailbox.msg ob i));
                let omitted =
                  match mode with
                  | 0 -> plan.omit pid dst
                  | 1 -> false
                  | 2 -> true
                  | _ -> Bytes.get mbytes dst <> '\000'
                in
                if omitted then begin
                  if (not faulty.(pid)) && not faulty.(dst) then
                    illegal "omission between non-faulty %d -> %d at round %d"
                      pid dst r;
                  incr messages_omitted;
                  Bytes.unsafe_set om i '\001';
                  match tr with
                  | None -> ()
                  | Some t ->
                      Trace.Sink.emit t.sink
                        (Trace.Event.Omit { round = r; src = pid; dst })
                end
                else begin
                  let delivered =
                    match link with
                    | None -> true
                    | Some l -> (
                        match
                          l.Link_intf.transmit ~trace ~round:r ~src:pid ~dst
                        with
                        | Link_intf.Delivered -> true
                        | Link_intf.Lost -> false)
                  in
                  if delivered then begin
                    Bytes.unsafe_set om i '\000';
                    match tr with
                    | None -> ()
                    | Some t ->
                        Trace.Sink.emit t.sink
                          (Trace.Event.Deliver { round = r; src = pid; dst })
                  end
                  else Bytes.unsafe_set om i '\002'
                end
              done;
              for i = len - 1 downto 0 do
                if Bytes.unsafe_get om i = '\000' then
                  Mailbox.push inboxes.(Mailbox.peer ob i) ~peer:pid
                    (Mailbox.msg ob i)
              done
            end
          done);
      (* The backward survivor push fills every inbox sorted by ascending
         sender already; assert the contract in debug builds instead of
         paying an O(n + len) re-sort scan on the steady-state hot path. *)
      assert (
        let sorted = ref true in
        for pid = 0 to n - 1 do
          if not (Mailbox.is_sorted_by_peer inboxes.(pid)) then sorted := false
        done;
        !sorted);
      (match tr with
      | None -> ()
      | Some t ->
          Trace.Sink.emit t.sink
            (Trace.Event.Round_end
               {
                 round = r;
                 messages = !messages_sent - t.r0_messages;
                 bits = !bits_sent - t.r0_bits;
                 omitted = !messages_omitted - t.r0_omitted;
                 rand_calls = Rand.Counter.calls counter - t.r0_rand_calls;
                 rand_bits = Rand.Counter.bits counter - t.r0_rand_bits;
               }));
      if !decided_round <> None then stop_flag := true;
      (match stop with
      | None -> ()
      | Some f ->
          if
            (not !stop_flag)
            && f
                 {
                   p_round = r;
                   p_messages = !messages_sent;
                   p_bits = !bits_sent;
                   p_rand_calls = Rand.Counter.calls counter;
                   p_rand_bits = Rand.Counter.bits counter;
                 }
          then stop_flag := true);
      incr round
    done;
    {
      decisions = Array.map (fun s -> (P.observe s).decided) states;
      faulty;
      rounds_total = !rounds_total;
      decided_round = !decided_round;
      messages_sent = !messages_sent;
      bits_sent = !bits_sent;
      messages_omitted = !messages_omitted;
      rand_calls = Rand.Counter.calls counter;
      rand_bits = Rand.Counter.bits counter;
      faults_used = !faults_used;
    }
  in
  { run_i }

(** Execute one run through a reusable {!instance}. *)
let run_instance ?on_round ?stop ?trace ?link (i : instance)
    ~(adversary : Adversary_intf.t) ~(inputs : int array) : outcome =
  i.run_i ?on_round ?stop ?trace ?link ~adversary ~inputs ()

(** [run protocol cfg ~adversary ~inputs] executes a full run on a fresh
    {!instance}. [on_round], if given, is called once per round with the
    round's envelopes (before the adversary intervenes) — benches use it to
    trace per-slot traffic. [stop], if given, is consulted at the end of
    every round with the cumulative metric counters; returning [true] ends
    the run exactly as hitting [max_rounds] would — the supervision layer
    uses it to extend the [max_rounds] semantics to
    message/randomness/wall-clock budgets. *)
let run ?on_round ?stop ?trace ?link (p : Protocol_intf.buffered)
    (cfg : Config.t) ~(adversary : Adversary_intf.t) ~(inputs : int array) :
    outcome =
  let i = instance p cfg in
  i.run_i ?on_round ?stop ?trace ?link ~adversary ~inputs ()
