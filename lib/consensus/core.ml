(** The voting core of OptimalOmissionsConsensus (Algorithm 1, lines 1-16),
    run over a pid range [lo, lo+m) so that Algorithm 4 can run it inside
    each super-process.

    An *epoch* consists of:
    - GroupBitsAggregation (Algorithm 2): ceil(log2 S) stages of the 3-round
      GroupRelay over the sqrt-decomposition into groups of size <= S =
      ceil(sqrt m) — sources broadcast their bag's operative counts to the
      whole group, transmitters confirm, transmitters relay the aggregated
      counts back (Figure 2);
    - GroupBitsSpreading (Algorithm 3): Theta(log m) gossip rounds over the
      predetermined expander, exchanging per-group operative counts with
      delta-encoding per link and permanent disregarding of silent links
      (Figure 1);
    - the biased-majority vote update (lines 9-12, Figure 3).

    After the last epoch comes one broadcast slot (line 14);
    {!finalize_into} consumes it (lines 15-16). The caller (Algorithm 1's wrapper or
    Algorithm 4) decides what to do with undecided processes.

    Operative-status rules (Appendix B.1):
    - a source that receives fewer than floor(|W|/2)+1 confirmations, or
      fewer than floor(|W|/2)+1 relayed results, becomes inoperative but
      keeps serving as a transmitter for the remainder of the current
      epoch's aggregation;
    - spreading follows {!Links}: a silent neighbor is disregarded
      permanently, and a process hearing fewer than Delta/3 live
      neighbors becomes inoperative;
    - inoperative processes stay idle from then on, in this and all future
      epochs (they only wait for a decision). *)

type counts = { ones : int; zeros : int }

let counts_zero = { ones = 0; zeros = 0 }
let counts_add a b = { ones = a.ones + b.ones; zeros = a.zeros + b.zeros }

type msg =
  | Counts of { stage : int; bag : int; c : counts }
  | Confirm of { stage : int }
  | Result of { stage : int; left : counts option; right : counts option }
  | Spread_delta of (int * counts) list  (** (group, counts); [] = heartbeat *)
  | Final of int  (** decision broadcast of line 14 *)

type slot = Agg_a of int | Agg_b of int | Agg_c of int | Spread of int | Bcast

(** One vote-update record per operative process per epoch, for the Figure 3
    bench: (pid, epoch, ones, zeros, rule). *)
type vote_event = {
  ev_pid : int;
  ev_epoch : int;
  ev_ones : int;
  ev_zeros : int;
  ev_rule : string;  (** "one" | "zero" | "coin", "+decided" when armed *)
}

type shared = {
  lo : int;  (** first member pid: local index [l] is pid [lo + l] *)
  m : int;
  part : Groups.t;  (** sqrt-decomposition over local indices *)
  graph : Expander.t option;  (** spreading graph over local indices *)
  stages : int;
  spread_rounds : int;
  epochs : int;
  epoch_len : int;
  schedule : slot array;
  vote_log : vote_event list ref option;  (** optional trace for benches *)
  final_broadcast : bool;
      (** emit the line-14 all-to-all broadcast (Algorithm 1). The
          crash-model variant of Appendix B.3 disables it and disseminates
          decisions over the expander instead. *)
  b_count : int;  (** bits of one count: ceil(log2 (group size + 1)) *)
  b_stage : int;  (** bits of a stage index: ceil(log2 (stages + 1)) *)
  b_group : int;  (** bits of a group index: ceil(log2 (groups + 1)) *)
}

(* Relay stages, spreading rounds and epochs of an [m]-member instance:
   the schedule's shape, which depends on the member count alone. *)
let shape ~params ~t_max m =
  let stages = Groups.stages (Groups.sqrt_size m) in
  let spread_rounds = Params.spread_rounds params ~n:m in
  let epochs = if m = 1 then 0 else Params.epoch_count params ~n:m ~t_max in
  (stages, spread_rounds, epochs)

let schedule_length ~params ~t_max m =
  let stages, spread_rounds, epochs = shape ~params ~t_max m in
  (epochs * ((3 * stages) + spread_rounds)) + 1

let make_shared ?vote_log ?(final_broadcast = true) ~lo ~m ~seed ~params ~t_max
    () =
  if m <= 0 then invalid_arg "Core.make_shared: empty member set";
  if lo < 0 then invalid_arg "Core.make_shared: negative pid";
  let part = Groups.sqrt_partition m in
  let graph =
    if m < 2 then None
    else begin
      let delta = Params.delta params ~n:m in
      Some
        (Expander.create_good ~attempts:params.Params.graph_attempts ~n:m
           ~delta ~seed:(Int64.of_int (seed + 0xA11CE)) ())
    end
  in
  let stages, spread_rounds, epochs = shape ~params ~t_max m in
  let epoch_len = (3 * stages) + spread_rounds in
  (* Each epoch: stages x (A, B, C), then the spreading rounds; the
     broadcast slot last. *)
  let schedule =
    let len = schedule_length ~params ~t_max m in
    Array.init len (fun i ->
        if i = len - 1 then Bcast
        else
          let k = i mod epoch_len in
          if k >= 3 * stages then Spread (k - (3 * stages) + 1)
          else
            let s = (k / 3) + 1 in
            match k mod 3 with 0 -> Agg_a s | 1 -> Agg_b s | _ -> Agg_c s)
  in
  {
    lo;
    m;
    part;
    graph;
    stages;
    spread_rounds;
    epochs;
    epoch_len;
    schedule;
    vote_log;
    final_broadcast;
    b_count = Params.log2_ceil (part.Groups.group_size + 1);
    b_stage = Params.log2_ceil (stages + 1);
    b_group = Params.log2_ceil (Groups.group_count part + 1);
  }

let rounds sh = Array.length sh.schedule

type t = {
  sh : shared;
  pid : int;  (** global pid *)
  grp : int;
  rank : int;
  group_size : int;
  quorum : int;
  mutable b : int;
  mutable operative : bool;
  mutable inop_epoch : int;  (** epoch in which operative was lost, or -1 *)
  mutable decided : bool;  (** the safety flag of line 12 *)
  mutable got_decision : bool;  (** holds a line-14/15 decision *)
  (* --- aggregation state --- *)
  mutable agg : counts;  (** counts of my bag at the current layer *)
  mutable sourced : bool;  (** did I source in the current stage *)
  relay : counts option array;
      (** child bag -> first counts heard; a stage's bag indices are below
          the group size *)
  (* --- spreading state --- *)
  links : Links.t;  (** my expander links, addressed by global pid *)
  bitpacks : counts option array;
  sent : bool array;
      (** group -> its counts already went out this phase: one flag per
          group stands for every live link (DESIGN.md §6) *)
}

let is_member sh pid = pid >= sh.lo && pid < sh.lo + sh.m

let create sh ~pid ~input =
  if input <> 0 && input <> 1 then invalid_arg "Core.create: input bit";
  if not (is_member sh pid) then invalid_arg "Core.create: pid not a member";
  let me = pid - sh.lo in
  let grp = Groups.group_of sh.part me in
  let glo, ghi = Groups.group sh.part grp in
  let group_size = ghi - glo in
  let links =
    match sh.graph with
    | Some g -> Links.create ~offset:sh.lo g me
    | None -> Links.none ()
  in
  {
    sh;
    pid;
    grp;
    rank = Groups.rank_of sh.part me;
    group_size;
    quorum = (group_size / 2) + 1;
    b = input;
    operative = true;
    inop_epoch = -1;
    (* a singleton instance trivially holds the unanimous count *)
    decided = sh.m = 1;
    got_decision = false;
    agg = counts_zero;
    sourced = false;
    relay = Array.make group_size None;
    links;
    bitpacks = Array.make (Groups.group_count sh.part) None;
    sent = Array.make (Groups.group_count sh.part) false;
  }

let candidate st = st.b

(** Override the candidate before the instance has been stepped — used by
    Algorithm 4, whose sub-runs must start from the value adopted in earlier
    round-robin phases. *)
let set_candidate st b =
  if b <> 0 && b <> 1 then invalid_arg "Core.set_candidate: bit expected";
  st.b <- b
let operative st = st.operative
let decided_flag st = st.decided
let got_decision st = st.got_decision
let epoch_of st ~slot = (slot - 1) / st.sh.epoch_len
let local_of st pid =
  if is_member st.sh pid then Some (pid - st.sh.lo) else None

let become_inoperative st ~slot =
  if st.operative then begin
    st.operative <- false;
    st.inop_epoch <- epoch_of st ~slot
  end

(* Inoperative processes keep transmitting until the end of the aggregation
   of the epoch in which they lost the status, then go fully idle. *)
let transmits st ~slot =
  st.operative || (st.inop_epoch >= 0 && st.inop_epoch = epoch_of st ~slot)

(* The first pid of my group: its members are the next [group_size]. *)
let group_base st = st.pid - st.rank

let in_my_group st pid =
  let r = pid - group_base st in
  r >= 0 && r < st.group_size

(* First counts heard per child bag; out-of-range bags read [None]. *)
let relayed st bag =
  if bag >= 0 && bag < Array.length st.relay then st.relay.(bag) else None

let clear_relay st = Array.fill st.relay 0 (Array.length st.relay) None

(* ------------------------------------------------------------------ *)
(* Aggregation (Algorithm 2 + GroupRelay)                              *)
(* ------------------------------------------------------------------ *)

(* The slot logic consumes its inbox through an iterator: the caller
   hands in a (possibly filtered) view of its engine mailbox, so no
   intermediate (src, msg) list is built on the hot path. *)

(* Entry to a stage's B slot: transmitters record the first-received counts
   per child bag (own contribution first — self-messages are handled
   locally, not through the network) and acknowledge each source heard —
   [emit src cm] fires in arrival order, once per source, with one shared
   Confirm record [cm]. *)
let agg_process_a st ~slot ~s ~iter ~emit ~cm =
  if transmits st ~slot then begin
    clear_relay st;
    if st.sourced then
      st.relay.(Groups.bag_at ~layer:s ~rank:st.rank) <- Some st.agg;
    iter (fun src m ->
        match m with
        | Counts { stage; bag; c } when stage = s && in_my_group st src ->
            emit src cm;
            if
              bag >= 0
              && bag < Array.length st.relay
              && Option.is_none st.relay.(bag)
            then st.relay.(bag) <- Some c
        | Counts _ | Confirm _ | Result _ | Spread_delta _ | Final _ -> ())
  end

(* Entry to a stage's C slot: sources count confirmations (self included)
   against the majority quorum of the whole group. *)
let agg_process_b st ~slot ~s ~iter =
  if st.sourced && st.operative then begin
    let confirms = ref 1 in
    iter (fun src m ->
        match m with
        | Confirm { stage } when stage = s && in_my_group st src ->
            incr confirms
        | Counts _ | Confirm _ | Result _ | Spread_delta _ | Final _ -> ());
    if !confirms < st.quorum then become_inoperative st ~slot
  end

(* Entry to the slot after a stage's C slot: sources combine the relayed
   results into their bag counts for the next layer. Any received version
   works — every version a transmitter relays originates at an operative
   source of the child bag and hence contains every operative member's bit
   (the paper's Lemma 1 induction); we take our own transmitter version
   first and fill missing children from the others in sender order. *)
let agg_finalize_stage st ~slot ~s ~iter =
  if st.operative then begin
    let k = Groups.bag_at ~layer:(s + 1) ~rank:st.rank in
    let left = ref (relayed st (Groups.left_child ~bag:k)) in
    let right = ref (relayed st (Groups.right_child ~bag:k)) in
    let results = ref 1 in
    iter (fun src m ->
        match m with
        | Result { stage; left = l; right = r }
          when stage = s && in_my_group st src ->
            incr results;
            (match (!left, l) with None, Some _ -> left := l | _ -> ());
            (match (!right, r) with None, Some _ -> right := r | _ -> ())
        | Counts _ | Confirm _ | Result _ | Spread_delta _ | Final _ -> ());
    if !results < st.quorum then become_inoperative st ~slot
    else begin
      let get = function Some c -> c | None -> counts_zero in
      st.agg <- counts_add (get !left) (get !right)
    end
  end

(* Group broadcast of one shared, already-wrapped message record [wm], as
   one descending range entry: the old list path built its output by
   fold-left consing over the ascending members, so the wire order (and
   hence the trace) is descending — kept bit-identical here. *)
let to_group_into st wm ~emit_all =
  let base = group_base st in
  emit_all ~lo:base ~hi:(base + st.group_size - 1) ~skip:st.pid ~desc:true wm

(* Emission at a stage's C slot: the transmitter sends each group member the
   result pair for that member's parent bag at layer [s + 1], whose members
   share one wrapped record; descending, as in [to_group_into]. *)
let agg_emit_results_into st ~slot ~s ~wrap ~emit =
  if transmits st ~slot then begin
    let size = st.group_size and layer = s + 1 in
    let base = group_base st in
    for k = Groups.bag_at ~layer ~rank:(size - 1) downto 0 do
      let left = relayed st (Groups.left_child ~bag:k)
      and right = relayed st (Groups.right_child ~bag:k) in
      let wm = wrap (Result { stage = s; left; right }) in
      for r = Groups.bag_hi ~size ~layer ~bag:k - 1
          downto Groups.bag_lo ~size ~layer ~bag:k do
        if r <> st.rank then emit (base + r) wm
      done
    done
  end

(* ------------------------------------------------------------------ *)
(* Spreading (Algorithm 3)                                             *)
(* ------------------------------------------------------------------ *)

let spread_init st =
  Array.fill st.bitpacks 0 (Array.length st.bitpacks) None;
  Array.fill st.sent 0 (Array.length st.sent) false;
  if st.operative then st.bitpacks.(st.grp) <- Some st.agg

(* Every live neighbor gets the same delta (see [sent]), so it is built
   and wrapped once per slot, groups ascending, and shared. *)
let spread_emit_into st ~wrap ~emit =
  if st.operative then begin
    let entries = ref [] in
    for grp = Array.length st.bitpacks - 1 downto 0 do
      match st.bitpacks.(grp) with
      | Some c when not st.sent.(grp) ->
          st.sent.(grp) <- true;
          entries := (grp, c) :: !entries
      | Some _ | None -> ()
    done;
    Links.emit_live st.links emit (wrap (Spread_delta !entries))
  end

(* Record the first counts heard per group. Top level, so absorbing a
   delta allocates no closure. *)
let rec absorb_delta bitpacks = function
  | [] -> ()
  | (grp, c) :: rest ->
      (if grp >= 0 && grp < Array.length bitpacks then
         match bitpacks.(grp) with
         | None -> bitpacks.(grp) <- Some c
         | Some _ -> ());
      absorb_delta bitpacks rest

let spread_receive st src = function
  | Spread_delta entries ->
      if Links.hear st.links src then absorb_delta st.bitpacks entries
  | Counts _ | Confirm _ | Result _ | Final _ -> ()

let spread_process st ~slot ~iter =
  if st.operative then begin
    Links.start st.links;
    iter (spread_receive st);
    if not (Links.close st.links) then become_inoperative st ~slot
  end

(* ------------------------------------------------------------------ *)
(* Vote update (lines 9-12)                                            *)
(* ------------------------------------------------------------------ *)

let vote_update st ~slot ~rand =
  if st.operative then begin
    let ones = ref 0 and zeros = ref 0 in
    Array.iter
      (function
        | Some c ->
            ones := !ones + c.ones;
            zeros := !zeros + c.zeros
        | None -> ())
      st.bitpacks;
    let upd = Voting.update ~ones:!ones ~zeros:!zeros ~rand in
    st.b <- upd.Voting.b;
    let armed = Voting.ready ~ones:!ones ~zeros:!zeros in
    if armed then st.decided <- true;
    match st.sh.vote_log with
    | None -> ()
    | Some log ->
        let rule =
          (if upd.Voting.used_coin then "coin"
           else if upd.Voting.b = 1 then "one"
           else "zero")
          ^ if armed then "+decided" else ""
        in
        log :=
          {
            ev_pid = st.pid;
            ev_epoch = epoch_of st ~slot - 1;
            ev_ones = !ones;
            ev_zeros = !zeros;
            ev_rule = rule;
          }
          :: !log
  end

(* ------------------------------------------------------------------ *)
(* The per-slot driver                                                 *)
(* ------------------------------------------------------------------ *)

let epoch_begin st =
  st.sourced <- false;
  clear_relay st;
  if st.operative then
    st.agg <-
      (if st.b = 1 then { ones = 1; zeros = 0 } else { ones = 0; zeros = 1 })

(* line 14 broadcasts to every member of the instance, not just the group;
   descending for the same wire-order reason as [to_group_into] *)
let to_group_all_into st wm ~emit_all =
  emit_all ~lo:st.sh.lo ~hi:(st.sh.lo + st.sh.m - 1) ~skip:st.pid ~desc:true
    wm

(** Run local slot [slot] (1-based, up to [rounds sh]), mutating the
    state. [iter f] must call [f src m] for every message of the previous
    slot's inbox in delivery order; outgoing messages go to [emit],
    addressed to global pids, each record passed through [wrap] once —
    never once per destination. The entry pass emits the Confirm
    acknowledgments directly — an [Agg_a] slot is always followed by the
    matching [Agg_b] slot, and entry processing shares the emission's
    [transmits] guard. Full-group/full-instance broadcasts go through
    [emit_all] (one shared record + range); per-destination messages stay
    on [emit]. *)
let step_into st ~slot ~iter ~rand ~wrap ~emit ~emit_all =
  (if slot > 1 then
     match st.sh.schedule.(slot - 2) with
     | Agg_a s ->
         (* one shared Confirm record for every acknowledged source *)
         let cm = wrap (Confirm { stage = s }) in
         agg_process_a st ~slot ~s ~iter ~emit ~cm
     | Agg_b s -> agg_process_b st ~slot ~s ~iter
     | Agg_c s -> agg_finalize_stage st ~slot ~s ~iter
     | Spread k ->
         spread_process st ~slot ~iter;
         if k = st.sh.spread_rounds then vote_update st ~slot ~rand
     | Bcast -> invalid_arg "Core.step_into: stepped past the schedule");
  match st.sh.schedule.(slot - 1) with
  | Agg_a s ->
      if s = 1 then epoch_begin st;
      if st.operative then begin
        st.sourced <- true;
        let bag = Groups.bag_at ~layer:s ~rank:st.rank in
        to_group_into st (wrap (Counts { stage = s; bag; c = st.agg }))
          ~emit_all
      end
      else st.sourced <- false
  | Agg_b _ -> () (* the Confirms went out during the entry pass above *)
  | Agg_c s -> agg_emit_results_into st ~slot ~s ~wrap ~emit
  | Spread k ->
      if k = 1 then spread_init st;
      spread_emit_into st ~wrap ~emit
  | Bcast ->
      if st.sh.final_broadcast && st.operative && st.decided then
        to_group_all_into st (wrap (Final st.b)) ~emit_all

(** Consume the Bcast slot's inbox (lines 15-16); same [iter] contract as
    {!step_into}. Must be called exactly once, on the round after
    [rounds sh] slots have been stepped. *)
let finalize_into st ~iter =
  if st.operative && st.decided then st.got_decision <- true
  else begin
    let adopted = ref None in
    (try
       iter (fun src m ->
           match m with
           | Final v when is_member st.sh src ->
               adopted := Some v;
               raise_notrace Sim.Mailbox.Stop
           | Counts _ | Confirm _ | Result _ | Spread_delta _ | Final _ -> ())
     with Sim.Mailbox.Stop -> ());
    match !adopted with
    | Some v ->
        st.b <- v;
        st.got_decision <- true
    | None -> ()
  end

(** Line 16: the decision available right after {!finalize_into}, if
    any. *)
let line16_decision st =
  if st.decided then Some st.b
  else if (not st.operative) && st.got_decision then Some st.b
  else None

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

(* Called once per message sent, so the widths are precomputed in
   [make_shared] and pricing allocates nothing. *)
let msg_bits sh m =
  match m with
  | Counts _ -> 3 + sh.b_stage + sh.b_count + (2 * sh.b_count)
  | Confirm _ -> 3 + sh.b_stage
  | Result _ -> 5 + sh.b_stage + (4 * sh.b_count)
  | Spread_delta entries ->
      3 + (List.length entries * (sh.b_group + (2 * sh.b_count)))
  | Final _ -> 4

let msg_hint = function
  | Final v -> Some v
  | Counts _ | Confirm _ | Result _ | Spread_delta _ -> None
