(** The voting core of OptimalOmissionsConsensus (Algorithm 1, lines 1-16),
    reusable over an arbitrary member set so that Algorithm 4 can run it
    inside each super-process.

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
    - a spreading process that receives fewer than Delta/3 messages from
      its non-disregarded neighbors becomes inoperative;
    - inoperative processes stay idle from then on, in this and all future
      epochs (they only wait for a decision);
    - a neighbor that fails to deliver during spreading is disregarded
      permanently — silent links belong to faulty processes, so pruning
      them is conservative (the paper's "refuses to accept messages from
      them in any future round"). *)

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
  members : int array;  (** global pids, ascending *)
  m : int;
  index_of : (int, int) Hashtbl.t;  (** global pid -> local index *)
  part : Groups.t;  (** sqrt-decomposition over local indices *)
  graph : Expander.t option;  (** spreading graph over local indices *)
  delta : int;
  op_threshold : int;  (** spreading operative threshold, Delta/3 *)
  stages : int;
  spread_rounds : int;
  epochs : int;
  epoch_len : int;
  schedule : slot array;
  vote_log : vote_event list ref option;  (** optional trace for benches *)
  contig : bool;
      (** the member pids form a contiguous ascending range — broadcasts to
          the whole instance can then go out as one range entry *)
  final_broadcast : bool;
      (** emit the line-14 all-to-all broadcast (Algorithm 1). The
          crash-model variant of Appendix B.3 disables it and disseminates
          decisions over the expander instead. *)
}

let log2_ceil = Params.log2_ceil

let make_shared ?vote_log ?(final_broadcast = true) ~members ~seed ~params ~t_max () =
  let m = Array.length members in
  if m = 0 then invalid_arg "Core.make_shared: empty member set";
  let index_of = Hashtbl.create (2 * m) in
  Array.iteri (fun i pid -> Hashtbl.replace index_of pid i) members;
  let part = Groups.sqrt_partition (Array.init m (fun i -> i)) in
  let graph =
    if m < 2 then None
    else begin
      let delta = Params.delta params ~n:m in
      Some
        (Expander.create_good ~attempts:params.Params.graph_attempts ~n:m
           ~delta ~seed:(Int64.of_int (seed + 0xA11CE)) ())
    end
  in
  let delta = match graph with Some g -> Expander.delta g | None -> 0 in
  let stages = Groups.stages part.Groups.group_size in
  let spread_rounds = Params.spread_rounds params ~n:m in
  let epochs = if m = 1 then 0 else Params.epoch_count params ~n:m ~t_max in
  let epoch_len = (3 * stages) + spread_rounds in
  let contig =
    let ok = ref true in
    Array.iteri (fun i pid -> if pid <> members.(0) + i then ok := false) members;
    !ok
  in
  let schedule =
    let slots = ref [ Bcast ] in
    for _ = 1 to epochs do
      for k = spread_rounds downto 1 do
        slots := Spread k :: !slots
      done;
      for s = stages downto 1 do
        slots := Agg_a s :: Agg_b s :: Agg_c s :: !slots
      done
    done;
    Array.of_list !slots
  in
  {
    members;
    m;
    index_of;
    part;
    graph;
    delta;
    op_threshold = delta / 3;
    stages;
    spread_rounds;
    epochs;
    epoch_len;
    schedule;
    vote_log;
    contig;
    final_broadcast;
  }

let rounds sh = Array.length sh.schedule

type t = {
  sh : shared;
  pid : int;  (** global pid *)
  me : int;  (** local index *)
  grp : int;
  rank : int;
  group_locals : int array;  (** local indices of my group, ascending *)
  group_size : int;
  group_contig : bool;
      (** the group's global pids are a contiguous ascending range *)
  group_lo : int;  (** global pid range of the group when [group_contig] *)
  group_hi : int;
  quorum : int;
  mutable b : int;
  mutable operative : bool;
  mutable inop_epoch : int;  (** epoch in which operative was lost, or -1 *)
  mutable decided : bool;  (** the safety flag of line 12 *)
  mutable got_decision : bool;  (** holds a line-14/15 decision *)
  (* --- aggregation state --- *)
  mutable agg : counts;  (** counts of my bag at the current layer *)
  mutable sourced : bool;  (** did I source in the current stage *)
  relay_tbl : (int, counts) Hashtbl.t;  (** child bag -> first counts *)
  (* --- spreading state --- *)
  bitpacks : counts option array;
  sent_to : (int * int, unit) Hashtbl.t;  (** (neighbor, group) already sent *)
  disregarded : (int, unit) Hashtbl.t;  (** silent neighbors, permanent *)
}

let create sh ~pid ~input =
  if input <> 0 && input <> 1 then invalid_arg "Core.create: input bit";
  let me =
    match Hashtbl.find_opt sh.index_of pid with
    | Some i -> i
    | None -> invalid_arg "Core.create: pid not a member"
  in
  let grp = Groups.group_of sh.part me in
  let group_locals = Groups.group sh.part grp in
  let group_size = Array.length group_locals in
  let group_contig =
    let ok = ref (group_size > 0) in
    let base = sh.members.(group_locals.(0)) in
    Array.iteri
      (fun i l -> if sh.members.(l) <> base + i then ok := false)
      group_locals;
    !ok
  in
  let group_lo = if group_size > 0 then sh.members.(group_locals.(0)) else 0 in
  let group_hi = group_lo + group_size - 1 in
  {
    sh;
    pid;
    me;
    grp;
    rank = Groups.rank_of sh.part me;
    group_locals;
    group_size;
    group_contig;
    group_lo;
    group_hi;
    quorum = (group_size / 2) + 1;
    b = input;
    operative = true;
    inop_epoch = -1;
    (* a singleton instance trivially holds the unanimous count *)
    decided = sh.m = 1;
    got_decision = false;
    agg = counts_zero;
    sourced = false;
    relay_tbl = Hashtbl.create 8;
    bitpacks = Array.make (Groups.group_count sh.part) None;
    sent_to = Hashtbl.create 64;
    disregarded = Hashtbl.create 8;
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
let global st local = st.sh.members.(local)
let local_of st pid = Hashtbl.find_opt st.sh.index_of pid

let become_inoperative st ~slot =
  if st.operative then begin
    st.operative <- false;
    st.inop_epoch <- epoch_of st ~slot
  end

(* Inoperative processes keep transmitting until the end of the aggregation
   of the epoch in which they lost the status, then go fully idle. *)
let transmits st ~slot =
  st.operative || (st.inop_epoch >= 0 && st.inop_epoch = epoch_of st ~slot)

let same_group st local = Groups.group_of st.sh.part local = st.grp

let is_neighbor st local =
  match st.sh.graph with
  | None -> false
  | Some g -> Expander.mem_edge g st.me local

(* ------------------------------------------------------------------ *)
(* Aggregation (Algorithm 2 + GroupRelay)                              *)
(* ------------------------------------------------------------------ *)

(* The slot logic consumes its inbox through an iterator: the caller
   hands in a (possibly filtered) view of its engine mailbox, so no
   intermediate (src, msg) list is built on the hot path. *)

(* Entry to a stage's B slot: transmitters record the first-received counts
   per child bag (own contribution first — self-messages are handled
   locally, not through the network) and acknowledge each source heard —
   [confirm src] fires in arrival order, once per source. *)
let agg_process_a st ~slot ~s ~iter ~confirm =
  if transmits st ~slot then begin
    Hashtbl.reset st.relay_tbl;
    if st.sourced then
      Hashtbl.replace st.relay_tbl (st.rank lsr (s - 1)) st.agg;
    iter (fun src m ->
        match m with
        | Counts { stage; bag; c } when stage = s -> (
            match local_of st src with
            | Some l when same_group st l ->
                confirm src;
                if not (Hashtbl.mem st.relay_tbl bag) then
                  Hashtbl.replace st.relay_tbl bag c
            | Some _ | None -> ())
        | Counts _ | Confirm _ | Result _ | Spread_delta _ | Final _ -> ())
  end

(* Entry to a stage's C slot: sources count confirmations (self included)
   against the majority quorum of the whole group. *)
let agg_process_b st ~slot ~s ~iter =
  if st.sourced && st.operative then begin
    let confirms = ref 1 in
    iter (fun src m ->
        match m with
        | Confirm { stage } when stage = s -> (
            match local_of st src with
            | Some l when same_group st l -> incr confirms
            | Some _ | None -> ())
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
    let k = st.rank lsr s in
    let left_bag = 2 * k and right_bag = (2 * k) + 1 in
    let left = ref (Hashtbl.find_opt st.relay_tbl left_bag) in
    let right = ref (Hashtbl.find_opt st.relay_tbl right_bag) in
    let results = ref 1 in
    iter (fun src m ->
        match m with
        | Result { stage; left = l; right = r } when stage = s -> (
            match local_of st src with
            | Some lc when same_group st lc ->
                incr results;
                (match (!left, l) with None, Some _ -> left := l | _ -> ());
                (match (!right, r) with None, Some _ -> right := r | _ -> ())
            | Some _ | None -> ())
        | Counts _ | Confirm _ | Result _ | Spread_delta _ | Final _ -> ());
    if !results < st.quorum then become_inoperative st ~slot
    else begin
      let get = function Some c -> c | None -> counts_zero in
      st.agg <- counts_add (get !left) (get !right)
    end
  end

(* Group broadcast of one shared message record. Emission walks the member
   array backwards: the old list path built its output by fold-left
   consing, so the wire order (and hence the trace) is the reverse of the
   array — kept bit-identical here. A contiguous group goes out as one
   descending broadcast entry; scattered member sets (possible under
   Algorithm 4's sub-instances) fall back to pointwise emission. *)
let to_group_into st msg ~emit ~emit_all =
  if st.group_contig then
    emit_all ~lo:st.group_lo ~hi:st.group_hi ~skip:st.pid ~desc:true msg
  else
    for i = Array.length st.group_locals - 1 downto 0 do
      let l = st.group_locals.(i) in
      if l <> st.me then emit (global st l) msg
    done

(* Emission at a stage's C slot: the transmitter sends each group member the
   result pair for that member's parent bag. *)
let agg_emit_results_into st ~slot ~s ~emit =
  if transmits st ~slot then
    for i = Array.length st.group_locals - 1 downto 0 do
      let l = st.group_locals.(i) in
      if l <> st.me then begin
        let rank_l = Groups.rank_of st.sh.part l in
        let k = rank_l lsr s in
        let left = Hashtbl.find_opt st.relay_tbl (2 * k) in
        let right = Hashtbl.find_opt st.relay_tbl ((2 * k) + 1) in
        emit (global st l) (Result { stage = s; left; right })
      end
    done

(* ------------------------------------------------------------------ *)
(* Spreading (Algorithm 3)                                             *)
(* ------------------------------------------------------------------ *)

let spread_init st =
  Array.fill st.bitpacks 0 (Array.length st.bitpacks) None;
  Hashtbl.reset st.sent_to;
  if st.operative then st.bitpacks.(st.grp) <- Some st.agg

(* The (neighbor, group) sent-once bookkeeping is independent across
   neighbors, so walking the neighbor array backwards (to match the old
   fold-left-consed wire order) builds the same per-neighbor deltas. *)
let spread_emit_into st ~emit =
  match st.sh.graph with
  | None -> ()
  | Some g ->
      if st.operative then begin
        let nb = Expander.neighbors g st.me in
        for i = Array.length nb - 1 downto 0 do
          let q = nb.(i) in
          if not (Hashtbl.mem st.disregarded q) then begin
            let entries = ref [] in
            for grp = Array.length st.bitpacks - 1 downto 0 do
              match st.bitpacks.(grp) with
              | Some c when not (Hashtbl.mem st.sent_to (q, grp)) ->
                  Hashtbl.replace st.sent_to (q, grp) ();
                  entries := (grp, c) :: !entries
              | Some _ | None -> ()
            done;
            emit (global st q) (Spread_delta !entries)
          end
        done
      end

let spread_process st ~slot ~iter =
  if st.operative then begin
    match st.sh.graph with
    | None -> ()
    | Some g ->
        let received = Hashtbl.create 16 in
        iter (fun src m ->
            match m with
            | Spread_delta entries -> (
                match local_of st src with
                | Some l
                  when is_neighbor st l && not (Hashtbl.mem st.disregarded l)
                  ->
                    Hashtbl.replace received l ();
                    List.iter
                      (fun (grp, c) ->
                        if
                          grp >= 0
                          && grp < Array.length st.bitpacks
                          && st.bitpacks.(grp) = None
                        then st.bitpacks.(grp) <- Some c)
                      entries
                | Some _ | None -> ())
            | Counts _ | Confirm _ | Result _ | Final _ -> ());
        Array.iter
          (fun q ->
            if
              (not (Hashtbl.mem st.disregarded q))
              && not (Hashtbl.mem received q)
            then Hashtbl.replace st.disregarded q ())
          (Expander.neighbors g st.me);
        if Hashtbl.length received < st.sh.op_threshold then
          become_inoperative st ~slot
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
  Hashtbl.reset st.relay_tbl;
  if st.operative then
    st.agg <-
      (if st.b = 1 then { ones = 1; zeros = 0 } else { ones = 0; zeros = 1 })

(* line 14 broadcasts to every member of the instance, not just the group;
   reverse member order for the same wire-order reason as [to_group_into] *)
let to_group_all_into st msg ~emit ~emit_all =
  if st.sh.contig then
    emit_all ~lo:st.sh.members.(0)
      ~hi:st.sh.members.(st.sh.m - 1)
      ~skip:st.pid ~desc:true msg
  else
    for i = Array.length st.sh.members - 1 downto 0 do
      let pid = st.sh.members.(i) in
      if pid <> st.pid then emit pid msg
    done

(** Run local slot [slot] (1-based, up to [rounds sh]), mutating the
    state. [iter f] must call [f src m] for every message of the previous
    slot's inbox in delivery order; outgoing messages go to [emit],
    addressed to global pids. The entry pass emits the Confirm
    acknowledgments directly — an [Agg_a] slot is always followed by the
    matching [Agg_b] slot, and entry processing shares the emission's
    [transmits] guard. Full-group/full-instance broadcasts go through
    [emit_all] (one shared record + range); per-destination messages stay
    on [emit]. *)
let step_into st ~slot ~iter ~rand ~emit ~emit_all =
  (if slot > 1 then
     match st.sh.schedule.(slot - 2) with
     | Agg_a s ->
         (* one shared Confirm record for every acknowledged source *)
         let cm = Confirm { stage = s } in
         agg_process_a st ~slot ~s ~iter ~confirm:(fun src -> emit src cm)
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
        to_group_into st
          (Counts { stage = s; bag = st.rank lsr (s - 1); c = st.agg })
          ~emit ~emit_all
      end
      else st.sourced <- false
  | Agg_b _ -> () (* the Confirms went out during the entry pass above *)
  | Agg_c s -> agg_emit_results_into st ~slot ~s ~emit
  | Spread k ->
      if k = 1 then spread_init st;
      spread_emit_into st ~emit
  | Bcast ->
      if st.sh.final_broadcast && st.operative && st.decided then
        to_group_all_into st (Final st.b) ~emit ~emit_all

(** Consume the Bcast slot's inbox (lines 15-16); same [iter] contract as
    {!step_into}. Must be called exactly once, on the round after
    [rounds sh] slots have been stepped. *)
let finalize_into st ~iter =
  if st.operative && st.decided then st.got_decision <- true
  else begin
    let adopted = ref None in
    iter (fun src m ->
        match m with
        | Final v when !adopted = None && local_of st src <> None ->
            adopted := Some v
        | Counts _ | Confirm _ | Result _ | Spread_delta _ | Final _ -> ());
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

let msg_bits sh m =
  let b_count = log2_ceil (sh.part.Groups.group_size + 1) in
  let b_stage = log2_ceil (sh.stages + 1) in
  let b_group = log2_ceil (Groups.group_count sh.part + 1) in
  match m with
  | Counts _ -> 3 + b_stage + b_count + (2 * b_count)
  | Confirm _ -> 3 + b_stage
  | Result _ -> 5 + b_stage + (4 * b_count)
  | Spread_delta entries ->
      3 + (List.length entries * (b_group + (2 * b_count)))
  | Final _ -> 4

let msg_hint = function
  | Final v -> Some v
  | Counts _ | Confirm _ | Result _ | Spread_delta _ -> None
