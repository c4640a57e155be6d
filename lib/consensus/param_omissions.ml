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

    The fallback, its line-18 broadcast and its residue round are the
    {!Phase_king} tail.

    Randomness: only the sub-runs flip coins — x runs of size n/x cost
    ~x (n/x)^{3/2} = n^2 / T random bits at T ~ sqrt(n x) rounds, the
    trade-off curve of Table 1, row Thm 3. *)

type msg =
  | Sub of int * Core.msg  (** phase index, sub-run message *)
  | Flood of int option  (** flooded consensus decision; None = heartbeat *)
  | Safety_vote of int
  | Safety_final of int
  | Pk_msg of Phase_king.msg  (** the fallback tail, line 28 on *)

type state = {
  pid : int;
  my_phase : int;  (** index of the super-process containing [pid] *)
  core : Core.t;  (** sub-run instance, stepped only during [my_phase] *)
  mutable consensus_decision : int option;
  mutable b : int;
  mutable operative : bool;
  links : Links.t;  (** decision-flood links on the global expander *)
  mutable decided_flag : bool;
  mutable got_final : bool;
  mutable fallback : Phase_king.t option;
  mutable decision : int option;
}

let log2_ceil = Params.log2_ceil

let sub_t_max m = max 1 (m / 30)

(* The run's round layout, by arithmetic alone: sizing a run
   ({!rounds_needed}) builds no expander. *)
type layout = {
  x : int;
  sps : Groups.t;
  core_len : int array;  (** sub-run schedule length, per super-process *)
  phase_core_len : int;
  phase_len : int;
  safety_start : int;  (** global round of the safety-vote emission *)
}

let layout ~params (cfg : Sim.Config.t) ~x =
  let n = cfg.Sim.Config.n in
  let sps = Groups.partition_into n x in
  let x = Groups.group_count sps in
  let core_len =
    Array.init x (fun i ->
        let lo, hi = Groups.group sps i in
        let m = hi - lo in
        Core.schedule_length ~params ~t_max:(sub_t_max m) m)
  in
  let phase_core_len = Array.fold_left max 0 core_len in
  (* each phase ends with the decision flood *)
  let phase_len = phase_core_len + (2 * log2_ceil n) in
  {
    x;
    sps;
    core_len;
    phase_core_len;
    phase_len;
    safety_start = (x * phase_len) + 1;
  }

type plan = {
  lay : layout;
  sub_shared : Core.shared array;
  graph : Expander.t;
}

let make_plan ~params (cfg : Sim.Config.t) ~x =
  let n = cfg.Sim.Config.n in
  let lay = layout ~params cfg ~x in
  let sub_shared =
    Array.init lay.x (fun i ->
        let lo, hi = Groups.group lay.sps i in
        let m = hi - lo in
        Core.make_shared ~lo ~m
          ~seed:(cfg.Sim.Config.seed + (1000003 * (i + 1)))
          ~params ~t_max:(sub_t_max m) ())
  in
  let delta = Params.delta params ~n in
  let graph =
    Expander.create_good ~attempts:params.Params.graph_attempts ~n ~delta
      ~seed:(Int64.of_int (cfg.Sim.Config.seed + 0xF100D)) ()
  in
  { lay; sub_shared; graph }

let wire =
  {
    Phase_king.wrap = (fun m -> Pk_msg m);
    unwrap =
      (function
      | Pk_msg m -> m
      | Sub _ | Flood _ | Safety_vote _ | Safety_final _ -> Phase_king.Other);
  }

let protocol_buffered ?(params = Params.default) ~x (cfg : Sim.Config.t) :
    Sim.Protocol_intf.buffered =
  let p = make_plan ~params cfg ~x in
  let l = p.lay in
  let n = cfg.Sim.Config.n in
  let module M = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = Printf.sprintf "param-omissions(x=%d)" l.x

    let init _cfg ~pid ~input =
      let my_phase = Groups.group_of l.sps pid in
      {
        pid;
        my_phase;
        core = Core.create p.sub_shared.(my_phase) ~pid ~input;
        consensus_decision = None;
        b = input;
        operative = true;
        links = Links.create p.graph pid;
        decided_flag = false;
        got_final = false;
        fallback = None;
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
          | Sub _ | Flood _ | Safety_vote _ | Safety_final _ | Pk_msg _ -> ())

    (* Flood-round inbox processing (lines 9-12 of Algorithm 4): adopt
       the first flooded decision under the link rule of {!Links}. *)
    let process_flood st ~iter =
      if st.operative then begin
        Links.start st.links;
        iter (fun src m ->
            match m with
            | Flood d -> (
                if Links.hear st.links src then
                  match (st.consensus_decision, d) with
                  | None, Some v -> st.consensus_decision <- Some v
                  | _ -> ())
            | Sub _ | Safety_vote _ | Safety_final _ | Pk_msg _ -> ());
        if not (Links.close st.links) then st.operative <- false
      end

    (* One shared record for every live neighbour. *)
    let flood_emission_into st ~emit =
      if st.operative then
        Links.emit_live st.links emit (Flood st.consensus_decision)

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
            | Sub _ | Flood _ | Safety_final _ | Pk_msg _ -> ());
        st.b <- Voting.update_deterministic ~ones:c.(1) ~zeros:c.(0) ~current:st.b;
        if Voting.ready ~ones:c.(1) ~zeros:c.(0) then st.decided_flag <- true
      end

    let process_safety_final st ~iter =
      if not (st.operative && st.decided_flag) then begin
        let adopted = ref None in
        iter (fun _src m ->
            match m with
            | Safety_final v when !adopted = None -> adopted := Some v
            | Safety_final _ | Sub _ | Flood _ | Safety_vote _ | Pk_msg _ ->
                ());
        match !adopted with
        | Some v ->
            st.b <- v;
            st.got_final <- true
        | None -> ()
      end
      else st.got_final <- true

    let step_into _cfg st ~round ~inbox ~rand ~emit ~emit_all =
      let iter f = Sim.Mailbox.iter inbox f in
      if st.decision <> None then ()
      else if round < l.safety_start then begin
        (* round-robin stage: phase-local slots 1..phase_len; the core runs
           in slots 1..core_len for the phase's super-process, flooding in
           the phase's last 2 * ceil(log2 n) slots *)
        let phase = (round - 1) / l.phase_len in
        let ls = round - (phase * l.phase_len) in
        let in_my_phase = phase = st.my_phase && st.operative in
        let cl = l.core_len.(st.my_phase) in
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
        else if ls > l.phase_core_len + 1 then process_flood st ~iter;
        (* emission *)
        if in_my_phase && ls <= cl then
          Core.step_into st.core ~slot:ls ~iter:(sub_iter ~phase iter) ~rand
            ~wrap:(fun m -> Sub (phase, m))
            ~emit ~emit_all
        else if ls > l.phase_core_len then flood_emission_into st ~emit
      end
      else begin
        let s = round - l.safety_start in
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
          else
            (* line 28: deterministic fallback among operative undecided;
               the rest wait for its line-18 decision *)
            st.fallback <-
              Some
                (Phase_king.start wire ~n ~t_max:cfg.Sim.Config.t_max
                   ~pid:st.pid ~participating:st.operative ~input:st.b
                   ~emit_all)
        end
        else
          match st.fallback with
          | Some pk -> (
              match Phase_king.advance wire pk ~inbox ~emit_all with
              | Decides v -> st.decision <- Some v
              | Running | Undecided -> ())
          | None -> ()
      end;
      st

    let observe st =
      {
        Sim.View.candidate = Some st.b;
        operative = st.operative;
        decided = st.decision;
      }

    let msg_bits = function
      | Sub (i, m) -> 2 + Core.msg_bits p.sub_shared.(i) m
      | Flood _ -> 2
      | Safety_vote _ -> 2
      | Safety_final _ -> 2
      | Pk_msg m -> Phase_king.msg_bits m

    let msg_hint = function
      | Sub (_, m) -> Core.msg_hint m
      | Flood d -> d
      | Safety_vote v | Safety_final v -> Some v
      | Pk_msg m -> Phase_king.msg_hint m
  end in
  (module M : Sim.Protocol_intf.BUFFERED)

(** Total schedule length, for sizing [Config.max_rounds]. *)
let rounds_needed ?(params = Params.default) ~x (cfg : Sim.Config.t) =
  let l = layout ~params cfg ~x in
  l.safety_start + 2 + Phase_king.rounds ~t_max:cfg.Sim.Config.t_max + 4

let builder ?params ~x () : Sim.Protocol_intf.builder =
  (module struct
    let name = Printf.sprintf "param-x%d" x
    let build cfg = protocol_buffered ?params ~x cfg
    let rounds_needed cfg = rounds_needed ?params ~x cfg + 10
  end)
