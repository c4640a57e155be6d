(** Subquadratic-communication consensus for the *crash* model — the
    Appendix B.3 comparison point (Hajiaghayi et al., STOC'22, use
    Õ(n^{3/2}) bits against crashes; Dolev-Reischuk / Abraham et al. show
    omissions force Ω(n^2)).

    The protocol is Algorithm 1's voting {!Core} with the one
    super-quadratic step removed: instead of the line-14 all-to-all
    decision broadcast (Θ(n^2) bits), decided processes disseminate the
    value by expander gossip in O(log n) rounds and O(n log^2 n) bits,
    followed by a neighbor help/reply exchange for stragglers. Against
    crashes this is safe — a crashed process is silent toward *everyone*,
    so it cannot do what the paper's B.3 discussion warns omission faults
    can: feed the doubling/gossip machinery selectively. Against omission
    faults this protocol makes no claims; the benches run it under crash
    adversaries only and measure the communication separation.

    Typical-run bits: Õ(n^{3/2}) from the epochs + Õ(n log^2 n)
    dissemination. The deterministic fallback (phase-king, Θ(n^2 t)) runs
    with polynomially small probability, exactly as in Algorithm 1. *)

type msg =
  | Core_msg of Core.msg
  | Gossip of int  (** disseminated decision *)
  | Help  (** straggler request *)
  | Pk_msg of Phase_king.msg
  | Decided of int

type phase =
  | Voting
  | Gossiping
  | Fallback of Phase_king.t
  | Waiting
  | Done of int

type state = {
  pid : int;
  core : Core.t;
  mutable phase : phase;
  mutable value : int option;  (** disseminated decision, once known *)
  sent_gossip_to : (int, unit) Hashtbl.t;
  mutable pending_replies : int list;  (** Help senders to answer *)
  mutable broadcast_help : bool;  (** last-resort full Help already sent *)
}

let iter_empty _f = ()

let protocol_buffered ?(params = Params.default) (cfg : Sim.Config.t) :
    Sim.Protocol_intf.buffered =
  let n = cfg.Sim.Config.n in
  let t_max = cfg.Sim.Config.t_max in
  let members = Array.init n (fun i -> i) in
  let shared =
    Core.make_shared ~final_broadcast:false ~members ~seed:cfg.Sim.Config.seed
      ~params ~t_max ()
  in
  let core_rounds = Core.rounds shared in
  let gossip_rounds = 2 * Params.log2_ceil n in
  let help_rounds = 2 * Params.log2_ceil n in
  let pk_rounds = Phase_king.rounds ~t_max in
  let decision_round = core_rounds + gossip_rounds + 1 in
  let graph =
    match shared.Core.graph with
    | Some g -> g
    | None ->
        invalid_arg "Crash_subquadratic.protocol_buffered: n must be >= 2"
  in
  let module M = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "crash-subquadratic"

    let init _cfg ~pid ~input =
      {
        pid;
        core = Core.create shared ~pid ~input;
        phase = Voting;
        value = None;
        sent_gossip_to = Hashtbl.create 16;
        pending_replies = [];
        broadcast_help = false;
      }

    (* Filtered views of the whole-inbox iterator: filtering happens
       during iteration, so no list is materialized. *)
    let core_iter iter f =
      iter (fun src m ->
          match m with
          | Core_msg cm -> f src cm
          | Gossip _ | Help | Pk_msg _ | Decided _ -> ())

    let pk_iter iter f =
      iter (fun src m ->
          match m with
          | Pk_msg pm -> f src pm
          | Core_msg _ | Gossip _ | Help | Decided _ -> ())

    (* Adopt gossiped/decided values and collect Help requests, at any
       point of the run. *)
    let absorb st ~iter =
      iter (fun src m ->
          match m with
          | Gossip v | Decided v -> if st.value = None then st.value <- Some v
          | Help -> st.pending_replies <- src :: st.pending_replies
          | Core_msg _ | Pk_msg _ -> ())

    let emit_replies st ~emit =
      (match st.value with
      | None -> ()
      | Some v ->
          (* pending_replies holds Help senders newest-first — the order
             the old list path answered them in; one shared reply record *)
          let reply = Decided v in
          List.iter (fun dst -> emit dst reply) st.pending_replies);
      st.pending_replies <- []

    (* Crash model: no heartbeats needed — silence is unambiguous — so the
       gossip sends only the value, once per link: O(n Delta) messages in
       total instead of the omission model's quadratic broadcast. The
       neighbor array is walked backwards to keep the old fold-left-consed
       wire order; the once-per-link bookkeeping is per-neighbor, so the
       direction does not change what is sent. *)
    let gossip_emission_into st ~emit =
      match st.value with
      | None -> ()
      | Some v ->
          let gm = Gossip v in
          let nb = Expander.neighbors graph st.pid in
          for i = Array.length nb - 1 downto 0 do
            let q = nb.(i) in
            if not (Hashtbl.mem st.sent_gossip_to q) then begin
              Hashtbl.replace st.sent_gossip_to q ();
              emit q gm
            end
          done

    let broadcast_into st m ~emit_all =
      emit_all ~lo:0 ~hi:(n - 1) ~skip:st.pid ~desc:false m

    (* Replies to Help requests go out before this round's other
       messages. *)
    let step_into _cfg st ~round ~inbox ~rand ~emit ~emit_all =
      let iter f = Sim.Mailbox.iter inbox f in
      let emit_all_pk ~lo ~hi ~skip ~desc m =
        emit_all ~lo ~hi ~skip ~desc (Pk_msg m)
      in
      absorb st ~iter;
      emit_replies st ~emit;
      (match st.phase with
      | Done _ -> ()
      | Voting when round <= core_rounds ->
          Core.step_into st.core ~slot:round ~iter:(core_iter iter) ~rand
            ~emit:(fun dst m -> emit dst (Core_msg m))
            ~emit_all:(fun ~lo ~hi ~skip ~desc m ->
              emit_all ~lo ~hi ~skip ~desc (Core_msg m))
      | Voting ->
          (* round = core_rounds + 1: close the voting, start gossiping *)
          Core.finalize_into st.core ~iter:iter_empty;
          if Core.decided_flag st.core && st.value = None then
            st.value <- Some (Core.candidate st.core);
          st.phase <- Gossiping;
          gossip_emission_into st ~emit
      | Gossiping when round < decision_round -> gossip_emission_into st ~emit
      | Gossiping -> (
          (* decision point *)
          match st.value with
          | Some v -> st.phase <- Done v
          | None ->
              if Core.operative st.core then begin
                let pk =
                  Phase_king.create ~n ~t_max ~pid:st.pid ~participating:true
                    ~input:(Core.candidate st.core)
                in
                Phase_king.step_into pk ~local_round:1 ~iter:iter_empty
                  ~emit_all:emit_all_pk;
                st.phase <- Fallback pk
              end
              else st.phase <- Waiting)
      | Fallback pk ->
          let local_round = round - decision_round in
          if local_round <= pk_rounds - 1 then
            Phase_king.step_into pk ~local_round:(local_round + 1)
              ~iter:(pk_iter iter) ~emit_all:emit_all_pk
          else begin
            let pk = Phase_king.finalize_into pk ~iter:(pk_iter iter) in
            match Phase_king.decision pk with
            | Some v ->
                st.value <- Some v;
                st.phase <- Done v;
                broadcast_into st (Decided v) ~emit_all
            | None ->
                (* terminal hand-off: the help/reply exchange recovers the
                   value — a decided process always exists in-model *)
                st.phase <- Waiting
          end
      | Waiting -> (
          match st.value with
          | Some v -> st.phase <- Done v
          | None ->
              (* straggler: ask the neighborhood, then once everyone *)
              if round <= decision_round + help_rounds then begin
                let nb = Expander.neighbors graph st.pid in
                for i = Array.length nb - 1 downto 0 do
                  emit nb.(i) Help
                done
              end
              else if not st.broadcast_help then begin
                st.broadcast_help <- true;
                broadcast_into st Help ~emit_all
              end));
      (* a decided process keeps answering Help requests *)
      (match st.phase with
      | Done v when st.value = None -> st.value <- Some v
      | _ -> ());
      st

    let observe st =
      {
        Sim.View.candidate = Some (Core.candidate st.core);
        operative = Core.operative st.core;
        decided = (match st.phase with Done v -> Some v | _ -> None);
      }

    let msg_bits = function
      | Core_msg m -> Core.msg_bits shared m
      | Gossip _ | Decided _ -> 2
      | Help -> 1
      | Pk_msg m -> Phase_king.msg_bits m

    let msg_hint = function
      | Core_msg m -> Core.msg_hint m
      | Gossip v | Decided v -> Some v
      | Pk_msg (Phase_king.Value v) | Pk_msg (Phase_king.King v) -> Some v
      | Help -> None
  end in
  (module M : Sim.Protocol_intf.BUFFERED)

let rounds_needed ?(params = Params.default) (cfg : Sim.Config.t) =
  let members = Array.init cfg.Sim.Config.n (fun i -> i) in
  let shared =
    Core.make_shared ~final_broadcast:false ~members ~seed:cfg.Sim.Config.seed
      ~params ~t_max:cfg.Sim.Config.t_max ()
  in
  Core.rounds shared
  + (4 * Params.log2_ceil cfg.Sim.Config.n)
  + Phase_king.rounds ~t_max:cfg.Sim.Config.t_max
  + 8

let builder ?params () : Sim.Protocol_intf.builder =
  (module struct
    let name = "crash-sub"
    let build cfg = protocol_buffered ?params cfg
    let rounds_needed cfg = rounds_needed ?params cfg + 10
  end)
