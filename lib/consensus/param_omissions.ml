(** ParamOmissions — Algorithm 4 of the paper (Theorem 3 / Theorem 8): the
    randomness-for-time trade-off.

    The n processes are split into x super-processes SP_1..SP_x of size
    ceil(n/x). In x round-robin phases, the members of SP_i run the
    truncated voting {!Core} (OptimalOmissionsConsensus up to line 16) among
    themselves; a member that obtained a decision floods it for
    2 ceil(log2 n) rounds over the global expander; every operative process
    that receives a flooded decision adopts it as its input for all later
    phases. A run on a *reliable* super-process (at most 1/30 of its members
    faulty, at least one member operative) pins the whole operative set to
    one value, after which no later sub-run can diverge (validity of the
    core). The safety rule of lines 15-30 — one counting exchange with the
    18/30 / 15/30 / 27/30 / 3/30 thresholds, then a decision broadcast —
    turns that whp-agreement into probability-1 agreement, falling back to
    the deterministic {!Phase_king} in the polynomially-unlikely residue.

    The phase-king residue (a fallback participant that heard nothing —
    only an eclipsed faulty process in-model) is resolved one round after
    the fallback finalize: adopt the first [Decided] broadcast, otherwise
    self-decide the phase-king working value. Without that step an
    undecided participant would never terminate, since the safety-rule
    deciders of line 26 broadcast nothing further.

    Randomness: only the sub-runs flip coins — x runs of size n/x cost
    ~x (n/x)^{3/2} = n^2 / T random bits at T ~ sqrt(n x) rounds, the
    trade-off curve of Table 1, row Thm 3. *)

type msg =
  | Sub of int * Core.msg  (** phase index, sub-run message *)
  | Flood of int option  (** flooded consensus decision; None = heartbeat *)
  | Safety_vote of int
  | Safety_final of int
  | Pk_msg of Phase_king.msg
  | Decided of int

type state = {
  pid : int;
  my_phase : int;  (** index of the super-process containing [pid] *)
  core : Core.t;  (** sub-run instance, stepped only during [my_phase] *)
  mutable consensus_decision : int option;
  mutable b : int;
  mutable operative : bool;
  disregarded : (int, unit) Hashtbl.t;
  mutable decided_flag : bool;
  mutable got_final : bool;
  mutable pk : Phase_king.t option;
  mutable decision : int option;
}

let log2_ceil = Params.log2_ceil

type plan = {
  x : int;
  sub_shared : Core.shared array;
  core_len : int array;
  phase_core_len : int;
  flood_rounds : int;
  phase_len : int;
  graph : Expander.t;
  op_threshold : int;
  pk_rounds : int;
  safety_start : int;  (** global round of the safety-vote emission *)
  sps : Groups.t;
}

let make_plan ~params (cfg : Sim.Config.t) ~x =
  let n = cfg.Sim.Config.n in
  let members = Array.init n (fun i -> i) in
  let sps = Groups.partition_into members x in
  let x = Groups.group_count sps in
  let sub_shared =
    Array.init x (fun i ->
        let sp = Groups.group sps i in
        Core.make_shared ~members:sp
          ~seed:(cfg.Sim.Config.seed + (1000003 * (i + 1)))
          ~params
          ~t_max:(max 1 (Array.length sp / 30))
          ())
  in
  let core_len = Array.map Core.rounds sub_shared in
  let phase_core_len = Array.fold_left max 0 core_len in
  let flood_rounds = 2 * log2_ceil n in
  let phase_len = phase_core_len + flood_rounds in
  let delta = Params.delta params ~n in
  let graph =
    Expander.create_good ~attempts:params.Params.graph_attempts ~n ~delta
      ~seed:(Int64.of_int (cfg.Sim.Config.seed + 0xF100D)) ()
  in
  {
    x;
    sub_shared;
    core_len;
    phase_core_len;
    flood_rounds;
    phase_len;
    graph;
    op_threshold = Expander.delta graph / 3;
    pk_rounds = Phase_king.rounds ~t_max:cfg.Sim.Config.t_max;
    safety_start = (x * phase_len) + 1;
    sps;
  }

let iter_empty _f = ()

let protocol_buffered ?(params = Params.default) ~x (cfg : Sim.Config.t) :
    Sim.Protocol_intf.buffered =
  let p = make_plan ~params cfg ~x in
  let n = cfg.Sim.Config.n in
  let module M = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = Printf.sprintf "param-omissions(x=%d)" p.x

    let init _cfg ~pid ~input =
      let my_phase = Groups.group_of p.sps pid in
      {
        pid;
        my_phase;
        core = Core.create p.sub_shared.(my_phase) ~pid ~input;
        consensus_decision = None;
        b = input;
        operative = true;
        disregarded = Hashtbl.create 8;
        decided_flag = false;
        got_final = false;
        pk = None;
        decision = None;
      }

    let broadcast_into st m ~emit_all =
      emit_all ~lo:0 ~hi:(n - 1) ~skip:st.pid ~desc:false m

    (* Filtered views of the whole-inbox iterator: filtering happens
       during iteration, so no list is materialized. *)
    let sub_iter ~phase iter f =
      iter (fun src m ->
          match m with
          | Sub (i, cm) when i = phase -> f src cm
          | Sub _ | Flood _ | Safety_vote _ | Safety_final _ | Pk_msg _
          | Decided _ ->
              ())

    let pk_iter iter f =
      iter (fun src m ->
          match m with
          | Pk_msg pm -> f src pm
          | Sub _ | Flood _ | Safety_vote _ | Safety_final _ | Decided _ -> ())

    (* Flood-round inbox processing: adopt the first flooded decision,
       disregard silent neighbors, drop to inoperative below Delta/3
       (lines 9-12 of Algorithm 4). *)
    let process_flood st ~iter =
      if st.operative then begin
        let received = Hashtbl.create 16 in
        iter (fun src m ->
            match m with
            | Flood d ->
                if
                  Expander.mem_edge p.graph st.pid src
                  && not (Hashtbl.mem st.disregarded src)
                then begin
                  Hashtbl.replace received src ();
                  match (st.consensus_decision, d) with
                  | None, Some v -> st.consensus_decision <- Some v
                  | _ -> ()
                end
            | Sub _ | Safety_vote _ | Safety_final _ | Pk_msg _ | Decided _
              ->
                ());
        Array.iter
          (fun q ->
            if
              (not (Hashtbl.mem st.disregarded q))
              && not (Hashtbl.mem received q)
            then Hashtbl.replace st.disregarded q ())
          (Expander.neighbors p.graph st.pid);
        if Hashtbl.length received < p.op_threshold then
          st.operative <- false
      end

    (* The neighbor array is walked backwards to keep the old fold-consed
       wire order; the disregarded test is per-neighbor, so the direction
       does not change what each neighbor receives. One shared record. *)
    let flood_emission_into st ~emit =
      if st.operative then begin
        let fm = Flood st.consensus_decision in
        let nb = Expander.neighbors p.graph st.pid in
        for i = Array.length nb - 1 downto 0 do
          let q = nb.(i) in
          if not (Hashtbl.mem st.disregarded q) then emit q fm
        done
      end

    (* Line 13: adopt the flooded decision as the candidate for the next
       phase; reset the per-phase flood slate. *)
    let end_of_phase st =
      (match st.consensus_decision with
      | Some v -> st.b <- v
      | None -> ());
      st.consensus_decision <- None

    (* Truncated sub-run finalize (the paper's "terminated at line 16"):
       keep the value only if the sub-run actually produced a decision. *)
    let finalize_sub st ~iter =
      Core.finalize_into st.core ~iter:(sub_iter ~phase:st.my_phase iter);
      if Core.decided_flag st.core || Core.got_decision st.core then begin
        st.b <- Core.candidate st.core;
        st.consensus_decision <- Some st.b
      end
      else st.consensus_decision <- None

    (* Lines 18-22: one all-to-all counting exchange with the Algorithm 1
       thresholds, deterministic in the middle window. *)
    let process_safety_votes st ~iter =
      if st.operative then begin
        let c = [| 0; 0 |] in
        c.(st.b) <- 1;
        iter (fun _src m ->
            match m with
            | Safety_vote v -> c.(v) <- c.(v) + 1
            | Sub _ | Flood _ | Safety_final _ | Pk_msg _ | Decided _ -> ());
        st.b <- Voting.update_deterministic ~ones:c.(1) ~zeros:c.(0) ~current:st.b;
        if Voting.ready ~ones:c.(1) ~zeros:c.(0) then st.decided_flag <- true
      end

    let process_safety_final st ~iter =
      if not (st.operative && st.decided_flag) then begin
        let adopted = ref None in
        iter (fun _src m ->
            match m with
            | Safety_final v when !adopted = None -> adopted := Some v
            | Safety_final _ | Sub _ | Flood _ | Safety_vote _ | Pk_msg _
            | Decided _ ->
                ());
        match !adopted with
        | Some v ->
            st.b <- v;
            st.got_final <- true
        | None -> ()
      end
      else st.got_final <- true

    let adopt_decided st ~iter =
      iter (fun _src m ->
          match m with
          | Decided v when st.decision = None -> st.decision <- Some v
          | Decided _ | Sub _ | Flood _ | Safety_vote _ | Safety_final _
          | Pk_msg _ ->
              ())

    let step_into _cfg st ~round ~inbox ~rand ~emit ~emit_all =
      let iter f = Sim.Mailbox.iter inbox f in
      let emit_all_pk ~lo ~hi ~skip ~desc m =
        emit_all ~lo ~hi ~skip ~desc (Pk_msg m)
      in
      if st.decision <> None then ()
      else if round < p.safety_start then begin
        (* round-robin stage: phase-local slots 1..phase_len; the core runs
           in slots 1..core_len for the phase's super-process, flooding in
           the last flood_rounds slots *)
        let phase = (round - 1) / p.phase_len in
        let ls = round - (phase * p.phase_len) in
        let in_my_phase = phase = st.my_phase && st.operative in
        let cl = p.core_len.(st.my_phase) in
        (* entry processing (consume slot ls-1's messages) *)
        if ls = 1 then begin
          if phase > 0 then begin
            process_flood st ~iter;
            end_of_phase st
          end;
          (* sub-runs start from the value adopted in earlier phases *)
          if in_my_phase then Core.set_candidate st.core st.b
        end
        else if in_my_phase && ls = cl + 1 then finalize_sub st ~iter
        else if ls > p.phase_core_len + 1 then process_flood st ~iter;
        (* emission *)
        if in_my_phase && ls <= cl then
          Core.step_into st.core ~slot:ls ~iter:(sub_iter ~phase iter) ~rand
            ~emit:(fun dst m -> emit dst (Sub (phase, m)))
            ~emit_all:(fun ~lo ~hi ~skip ~desc m ->
              emit_all ~lo ~hi ~skip ~desc (Sub (phase, m)))
        else if ls > p.phase_core_len then flood_emission_into st ~emit
      end
      else begin
        let s = round - p.safety_start in
        if s = 0 then begin
          (* entry: close the last phase; emission: safety vote (line 17) *)
          process_flood st ~iter;
          end_of_phase st;
          if st.operative then broadcast_into st (Safety_vote st.b) ~emit_all
        end
        else if s = 1 then begin
          process_safety_votes st ~iter;
          if st.operative && st.decided_flag then
            broadcast_into st (Safety_final st.b) ~emit_all
        end
        else if s = 2 then begin
          process_safety_final st ~iter;
          if st.decided_flag || ((not st.operative) && st.got_final) then
            st.decision <- Some st.b
          else if st.operative then begin
            (* line 28: deterministic fallback among operative undecided *)
            let pk =
              Phase_king.create ~n ~t_max:cfg.Sim.Config.t_max ~pid:st.pid
                ~participating:true ~input:st.b
            in
            Phase_king.step_into pk ~local_round:1 ~iter:iter_empty
              ~emit_all:emit_all_pk;
            st.pk <- Some pk
          end
        end
        else begin
          match st.pk with
          | Some pk when s <= p.pk_rounds + 1 ->
              Phase_king.step_into pk ~local_round:(s - 1)
                ~iter:(pk_iter iter) ~emit_all:emit_all_pk
          | Some pk when s = p.pk_rounds + 2 -> (
              let pk = Phase_king.finalize_into pk ~iter:(pk_iter iter) in
              st.pk <- Some pk;
              match Phase_king.decision pk with
              | Some v ->
                  st.decision <- Some v;
                  broadcast_into st (Decided v) ~emit_all
              | None -> ())
          | Some pk when s = p.pk_rounds + 3 ->
              (* undecided residue: the safety-rule deciders of line 26
                 never broadcast again, so adopt a fallback decider's
                 [Decided] if one arrived, else self-decide the phase-king
                 working value — fallback decisions come from the same
                 line-15 adoption, so the values agree *)
              adopt_decided st ~iter;
              if st.decision = None then
                st.decision <- Some (Phase_king.value pk)
          | Some _ | None -> adopt_decided st ~iter
        end
      end;
      st

    let observe st =
      {
        Sim.View.candidate = Some st.b;
        operative = st.operative;
        decided = st.decision;
      }

    let msg_bits = function
      | Sub (_, m) -> 2 + Core.msg_bits p.sub_shared.(0) m
      | Flood _ -> 2
      | Safety_vote _ -> 2
      | Safety_final _ -> 2
      | Pk_msg m -> Phase_king.msg_bits m
      | Decided _ -> 2

    let msg_hint = function
      | Sub (_, m) -> Core.msg_hint m
      | Flood d -> d
      | Safety_vote v | Safety_final v | Decided v -> Some v
      | Pk_msg (Phase_king.Value v) | Pk_msg (Phase_king.King v) -> Some v
  end in
  (module M : Sim.Protocol_intf.BUFFERED)

(** Total schedule length, for sizing [Config.max_rounds]. *)
let rounds_needed ?(params = Params.default) ~x (cfg : Sim.Config.t) =
  let p = make_plan ~params cfg ~x in
  p.safety_start + 2 + p.pk_rounds + 4

let builder ?params ~x () : Sim.Protocol_intf.builder =
  (module struct
    let name = Printf.sprintf "param-x%d" x
    let build cfg = protocol_buffered ?params ~x cfg
    let rounds_needed cfg = rounds_needed ?params ~x cfg + 10
  end)
