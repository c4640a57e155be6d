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

    Delivery route: the link and the plan choose it, never the observer.
    A plan whose omissions are per-sender [Masks] takes the mask route
    (one verdict per sender, read byte by byte); a [Predicate] plan takes
    the general route, which asks a verdict per message; a link is asked
    after either. The routes differ only in where a message's verdict is
    read. One closure-free verdict walk per sender serves both: it asks
    in emission order, checks every omission's legality, reports
    [Omit]/[Deliver] to a message-level sink, and counts the omissions.
    It asks message by message with a predicate or a link; when the
    mask alone decides, it steps over each broadcast segment by runs of
    destinations the mask treats alike, so a segment costs O(runs),
    traced or not. The walk has two writers. A sender whose round is
    pure wide broadcast has its drops written straight into the
    round-shared broadcast table's masks, at the destination; any other
    sender's verdicts are written at each message's rank, then pushed
    row by row. A message-level sink only
    decides whether [Send]/[Omit]/[Deliver] events are reported, on
    either route.

    Allocation discipline: the hot path runs on reusable buffers — per-pid
    {!Mailbox.t} outboxes/inboxes reset by count, one adversary {!View.t}
    whose observation and fault-snapshot arrays are reused across rounds,
    and a single derived random stream reseeded per step. On either
    route the engine allocates nothing per message: a sender is priced by
    one closure-free {!Mailbox.total_bits}, and its verdict walk
    ({!Mailbox.verdicts}) writes either table masks from buffers the
    table reuses across rounds ({!Mailbox.rshare}) or verdict bytes
    that a reverse push reads ({!Mailbox.deliver_rows}); an untraced,
    linkless sender that omits nothing on the mask route skips the
    walk. The engine's own
    steady-state cost is O(n) words per round (fresh [obs_core]
    observations). Protocols and predicates add what they allocate per
    message record or per call. A message-level sink is handed a
    pointwise message's event fields ({!Trace.Sink.send},
    {!Trace.Sink.omit}, {!Trace.Sink.deliver}) and a broadcast segment's
    events as runs: its [Send]s as one {!Trace.Sink.sends} call, and each
    stretch of destinations with one verdict as one {!Trace.Sink.fates}
    call (a run of one message on the predicate route or over a link,
    reported per message). The pending-message walk prices and hints a
    record once per run of entries sharing it, and a {!Trace.Tail} stores
    each run in one or two slots without allocating, so a tail costs
    O(1) a run, not a message. A sink built with {!Trace.Sink.make}
    builds each event. *)

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

(* What the pending-message walk feeds: an adversary's
   {!View.iter_envelopes} consumer, or a message-level sink's [Send]
   events: {!Trace.Sink.send} for a pointwise slot, {!Trace.Sink.sends}
   for a broadcast segment. *)
type walk =
  | Idle
  | Envelopes of (int -> int -> int -> int option -> unit)
  | Sends of Trace.Sink.t * int

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
    mailboxes, adversary view, omission scratch — allocated once and
    reused across runs. Benches and sweeps that execute many runs of the
    same (protocol, cfg) pair amortise the buffer construction away;
    runs through an instance are bit-identical to fresh {!run} runs
    because every run resets all per-run state before its first
    round. *)
type instance = {
  run_i :
    ?stop:(progress -> bool) ->
    ?trace:Trace.Sink.t ->
    ?link:Link_intf.t ->
    adversary:Adversary_intf.t ->
    inputs:int array ->
    unit ->
    outcome;
}

(* [Array.init n f] without a forced minor collection. An array of more
   than 256 words goes straight to the major heap, and [Array.init] seeds
   it with the young [f 0], which makes the runtime empty the minor heap
   first. Young chunks of at most 256 values, concatenated, are copied
   into the major heap instead. *)
let init_major n f =
  if n <= 256 then Array.init n f
  else
    Array.concat
      (List.init ((n + 255) / 256) (fun c ->
           let lo = c * 256 in
           Array.init (min 256 (n - lo)) (fun i -> f (lo + i))))

(* The engine proper. Event and metric ordering deliberately reproduces
   the original list-based engine bit for bit, so traces and outcomes stay
   comparable with every earlier version:
   - the pending-message walk ({!View.iter_envelopes} and the [Send]
     events) groups senders in ascending pid order, and within a sender
     lists messages in *reverse* emission order (the old engine consed
     each outbox onto an accumulator);
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
    init_major n (fun _ -> Mailbox.create ())
  in
  (* Round-shared broadcast table: both routes deliver a surviving
     broadcast as one table entry instead of one row per destination;
     every inbox merges the table back in at read time. *)
  let bcast = Mailbox.shared_create ~n in
  Array.iteri (fun pid ib -> Mailbox.attach_shared ib bcast ~owner:pid) inboxes;
  let outboxes : P.msg Mailbox.t array =
    init_major n (fun _ -> Mailbox.create ())
  in
  (* One emit / emit_all closure pair per sender, allocated once. The
     destination-range check lives here, at emission. *)
  let emits =
    init_major n (fun pid ->
        let ob = outboxes.(pid) in
        fun dst m ->
          if dst < 0 || dst >= n then
            invalid_arg "Engine.run: message to out-of-range pid";
          Mailbox.push ob ~peer:dst m)
  in
  let emit_alls =
    init_major n (fun pid ->
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
  (* Every process's state, built by the first run and refilled in place
     by each later one: a fresh array would start from a young [P.init]
     value and, past 256 pids, force a minor collection every run. *)
  let states = ref [||] in
  (* The one pending-message walk: every outbox, each sender in reverse
     emission order (the ordering note above). It feeds both
     {!View.iter_envelopes}, segments expanded, and the [Send] events,
     each segment as one run. The closures read the sender and the
     consumer from these cells, so they are built once per instance, not
     once per sender. A record is priced and hinted once per run of
     consecutive [==] entries (a broadcast segment is one run), through
     the [last] cache. The consumer and the cache are emptied after each
     walk: the instance outlives the run, and must not keep its trace
     sink, adversary or messages alive. *)
  let walk = ref Idle and walk_src = ref 0 in
  let last = ref None and last_bits = ref 0 and last_hint = ref None in
  let[@inline] price m =
    match !last with
    | Some l when l == m -> ()
    | _ ->
        last := Some m;
        last_bits := max 1 (P.msg_bits m);
        last_hint := P.msg_hint m
  in
  let walk_msg dst m =
    price m;
    match !walk with
    | Envelopes f -> f !walk_src dst !last_bits !last_hint
    | Sends (sink, round) ->
        (* bound first: applied whole, the entry point allocates nothing *)
        let send = Trace.Sink.send sink in
        send ~round ~src:!walk_src ~dst ~bits:!last_bits
          ~hint:!last_hint
    | Idle -> ()
  in
  let walk_runs =
    Some
      (fun ~lo ~hi ~skip ~desc m ->
        price m;
        match !walk with
        | Sends (sink, round) ->
            let sends = Trace.Sink.sends sink in
            sends ~round ~src:!walk_src ~lo ~hi ~skip ~desc
              ~bits:!last_bits ~hint:!last_hint
        | Envelopes _ | Idle -> ())
  in
  let walk_pending w =
    walk := w;
    let run = match w with Sends _ -> walk_runs | Envelopes _ | Idle -> None in
    for pid = 0 to n - 1 do
      walk_src := pid;
      Mailbox.riter ?run outboxes.(pid) walk_msg
    done;
    walk := Idle;
    last := None;
    last_hint := None
  in
  let iter_envelopes f = walk_pending (Envelopes f) in
  (* The single adversary view, refreshed in place each round. *)
  let view_obs =
    init_major n (fun pid ->
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
      iter_envelopes;
    }
  in
  (* Verdict bytes of a sender delivered row by row, grown to the largest
     such outbox seen, and the mask of an [Omit_all] verdict. *)
  let omit_scratch = ref Bytes.empty in
  let omit_every = Bytes.make n '\001' in
  (* Does this sender deliver through the round-shared table? Only a
     sender whose round is pure wide broadcast does: O(1) per segment
     instead of one inbox row per destination. Mixed, pointwise or
     narrow-segment (e.g. one-group) outboxes keep the per-destination
     push — every receiver scans the whole table, so only segments
     covering at least half the network pay for their scan slot — and
     the routing is all-or-nothing per sender, so table sources and
     pointwise inbox rows stay disjoint (the merge contract). Either way
     a sender's entries go in reverse emission order; senders ascend, so
     inboxes come out sorted with the same-sender order the legacy
     engine produced. *)
  let via_table ob =
    Mailbox.point_length ob = 0
    && Mailbox.seg_count ob > 0
    && 2 * Mailbox.min_seg_span ob >= n
  in
  let run_i ?stop ?trace ?link ~(adversary : Adversary_intf.t)
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
    let init pid = P.init cfg ~pid ~input:inputs.(pid) in
    if Array.length !states = 0 then states := init_major n init
    else
      for pid = 0 to n - 1 do
        !states.(pid) <- init pid
      done;
    let states = !states in
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
    (* The sink again when it takes message-level events: only then are
       [Send]/[Omit]/[Deliver] events reported. It plays no part in
       choosing the delivery route. *)
    let msg_sink =
      match trace with Some s when Trace.Sink.messages s -> trace | _ -> None
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
      (* Phase 2: adversary intervention. The pending messages are walked
         only on demand: for a message-level sink's [Send] events and for
         an adversary that calls {!View.iter_envelopes}. *)
      view.View.round <- r;
      Array.blit faulty 0 view.View.faulty 0 n;
      view.View.faults_used <- !faults_used;
      for pid = 0 to n - 1 do
        let o = view_obs.(pid) in
        o.View.core <- P.observe states.(pid);
        o.View.used_randomness <- used_randomness.(pid)
      done;
      (match msg_sink with
      | None -> ()
      | Some sink -> walk_pending (Sends (sink, r)));
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
      (* Phase 3: communication, one verdict walk per sender on both
         routes. Omitted messages still count as sent: the sender
         transmitted them; the adversary suppressed delivery. The walk
         asks each message's verdict in emission order (omission
         predicates may draw randomness per call): the sender's mask
         byte or the round's predicate, then the [link] (when one is
         plugged in). A [Lost] verdict is a residual link loss, marked
         '\002': dropped like an omission but not checked against the
         fault set. The walk ({!Mailbox.verdicts}) has two writers: a
         table sender's drops go into the table's masks
         ({!Mailbox.rshare}); any other sender's verdict bytes go into
         a scratch buffer that a backward push delivers
         ({!Mailbox.deliver_rows}), so each inbox comes out sorted by
         sender. The walk returns the sender's omission count:
         [messages_omitted] is counted here alone and never counts a
         link loss, which the transport accounts for as an induced
         omission fault. An illegal omission ends the walk, and raises
         [Illegal_plan] before its sender's count. *)
      (match link with
      | None -> ()
      | Some l -> l.Link_intf.begin_round ~round:r);
      (* Last round's broadcast-table entries were consumed in phase 1;
         the table refills below, on either route. *)
      Mailbox.shared_clear bcast;
      let ask =
        match plan.omit with
        | View.Predicate p -> Some p
        | View.Masks _ -> None
      in
      for pid = 0 to n - 1 do
        let ob = outboxes.(pid) in
        let len = Mailbox.length ob in
        if len > 0 then begin
          messages_sent := !messages_sent + len;
          bits_sent := !bits_sent + Mailbox.total_bits ob P.msg_bits;
          let mask =
            match plan.omit with
            | View.Predicate _ -> Bytes.empty
            | View.Masks m -> (
                match m pid with
                | View.Deliver_all -> Bytes.empty
                | View.Omit_all -> omit_every
                | View.Omit_mask b -> b)
          in
          let omitted =
            try
              if via_table ob then
                Mailbox.rshare ob bcast ~faulty ~round:r ~ask ~link
                  ~link_trace:trace ~sink:msg_sink ~mask ~src:pid
              else
                Mailbox.deliver_rows ob inboxes ~scratch:omit_scratch ~faulty
                  ~round:r ~ask ~link ~link_trace:trace ~sink:msg_sink ~mask
                  ~src:pid
            with Mailbox.Stop ->
              (* the walks do not catch it: a predicate, link or sink
                 that raised it would otherwise end the round half
                 delivered *)
              invalid_arg "Engine.run: a verdict walk raised Mailbox.Stop"
          in
          if omitted < 0 then
            illegal "omission between non-faulty %d -> %d at round %d" pid
              (-1 - omitted) r;
          messages_omitted := !messages_omitted + omitted
        end
      done;
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
    let decisions = init_major n (fun pid -> (P.observe states.(pid)).decided) in
    (* The instance outlives the run and must not keep its states alive:
       every slot but the first now shares one state. *)
    if n > 1 then Array.fill states 1 (n - 1) states.(0);
    {
      decisions;
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
let run_instance ?stop ?trace ?link (i : instance)
    ~(adversary : Adversary_intf.t) ~(inputs : int array) : outcome =
  i.run_i ?stop ?trace ?link ~adversary ~inputs ()

(** [run protocol cfg ~adversary ~inputs] executes a full run on a fresh
    {!instance}. [stop], if given, is consulted at the end of every round
    with the cumulative metric counters; returning [true] ends the run
    exactly as hitting [max_rounds] would — the supervision layer uses it
    to extend the [max_rounds] semantics to message/randomness/wall-clock
    budgets. *)
let run ?stop ?trace ?link (p : Protocol_intf.buffered)
    (cfg : Config.t) ~(adversary : Adversary_intf.t) ~(inputs : int array) :
    outcome =
  let i = instance p cfg in
  i.run_i ?stop ?trace ?link ~adversary ~inputs ()
