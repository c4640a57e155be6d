(** OptimalOmissionsConsensus — Algorithm 1 of the paper (Theorem 1 /
    Theorem 5): the voting {!Core} over all n processes, followed by the
    decision broadcast (lines 14-16) and, for the polynomially-unlikely
    undecided residue, the deterministic fallback (line 18, here
    {!Phase_king} — see DESIGN.md, substitution 3).

    Global round layout (V = [Core.rounds], P = [Phase_king.rounds]):
    - rounds 1..V: the voting core (epochs + the line-14 broadcast slot);
    - round V+1: consume the broadcast (lines 15-16) and decide, or start
      the fallback as an operative undecided participant;
    - rounds V+1 .. V+P: phase-king among operative undecided processes;
    - round V+P+1: fallback participants fix their decision and broadcast
      it (line 18); idle processes decide on any received decision
      (line 19);
    - round V+P+2: a participant whose phase-king run ended undecided (it
      heard no fallback message at all — possible only when the adversary
      fully eclipses it, or when it is the lone participant) resolves the
      residue: it adopts the first line-18 [Decided] broadcast it received,
      falling back to its own phase-king value when none arrived (the lone
      participant's value is the agreed one by the line-15 adoption), and
      terminates without broadcasting. Before this [Undecided] phase
      existed the process would re-run [Phase_king.finalize] on the
      already-finalized state every later round, double-consuming inboxes —
      the line-18/19 seam now has exactly one terminal transition.

    The engine mailbox is read through message-kind iterators that filter
    during iteration — no intermediate [(src, msg) list] on the hot path. *)

type phase =
  | Voting of Core.t
  | Fallback of { core : Core.t; pk : Phase_king.t }
  | Undecided of { core : Core.t; value : int }
      (** line-18 residue: the fallback ended undecided; wait one round for
          a [Decided] broadcast, then self-decide [value] *)
  | Waiting of { core : Core.t }  (** line 19: idle until a decision arrives *)
  | Done of { core : Core.t; value : int }

type state = { phase : phase; pid : int }

type msg = Core_msg of Core.msg | Pk_msg of Phase_king.msg | Decided of int

(* Top level, so the voting path passes [core_msg] without building a
   closure; the fallback's [emit_all_pk emit_all] builds one per step. *)
let core_msg m = Core_msg m
let emit_all_pk emit_all ~lo ~hi ~skip ~desc m =
  emit_all ~lo ~hi ~skip ~desc (Pk_msg m)

(* [Some v] for a bit without allocating: the two static atoms. *)
let some_bit = function 0 -> Some 0 | 1 -> Some 1 | v -> Some v

let core_of = function
  | Voting c
  | Fallback { core = c; _ }
  | Undecided { core = c; _ }
  | Waiting { core = c }
  | Done { core = c; _ } -> c

(* The per-round inbox viewed by message kind, filtering during
   iteration. *)
let iter_core inbox f =
  Sim.Mailbox.iter inbox (fun src m ->
      match m with Core_msg cm -> f src cm | Pk_msg _ | Decided _ -> ())

let iter_pk inbox f =
  Sim.Mailbox.iter inbox (fun src m ->
      match m with Pk_msg pm -> f src pm | Core_msg _ | Decided _ -> ())

let first_decided inbox =
  let first = ref None in
  Sim.Mailbox.iter inbox (fun _src m ->
      match m with
      | Decided v ->
          first := Some v;
          raise_notrace Sim.Mailbox.Stop
      | Core_msg _ | Pk_msg _ -> ());
  !first

let iter_empty _f = ()

(** Build the protocol for a given configuration. The shared structures
    (partition, expander, schedule) are computed once here — they are pure
    functions of (n, seed, params), which is how all processes agree on them
    without communication. *)
let protocol_buffered ?(params = Params.default) ?vote_log
    (cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
  let members = Array.init cfg.Sim.Config.n (fun i -> i) in
  let shared =
    Core.make_shared ?vote_log ~members ~seed:cfg.Sim.Config.seed ~params
      ~t_max:cfg.Sim.Config.t_max ()
  in
  let core_rounds = Core.rounds shared in
  let pk_rounds = Phase_king.rounds ~t_max:cfg.Sim.Config.t_max in
  let module M = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "optimal-omissions"

    let init _cfg ~pid ~input =
      { phase = Voting (Core.create shared ~pid ~input); pid }

    let step_into _cfg st ~round ~inbox ~rand ~emit ~emit_all =
      match st.phase with
      | Done _ -> st
      | Voting core when round <= core_rounds ->
          Core.step_into core ~slot:round ~iter:(iter_core inbox) ~rand
            ~wrap:core_msg ~emit ~emit_all;
          st
      | Voting core -> (
          (* round = core_rounds + 1: lines 15-16 *)
          Core.finalize_into core ~iter:(iter_core inbox);
          match Core.line16_decision core with
          | Some v -> { st with phase = Done { core; value = v } }
          | None ->
              if Core.operative core then begin
                let pk =
                  Phase_king.create ~n:cfg.Sim.Config.n
                    ~t_max:cfg.Sim.Config.t_max ~pid:st.pid
                    ~participating:true ~input:(Core.candidate core)
                in
                Phase_king.step_into pk ~local_round:1 ~iter:iter_empty
                  ~emit_all:(emit_all_pk emit_all);
                { st with phase = Fallback { core; pk } }
              end
              else { st with phase = Waiting { core } })
      | Fallback { core; pk } ->
          let local_round = round - core_rounds - 1 in
          if local_round <= pk_rounds - 1 then begin
            Phase_king.step_into pk ~local_round:(local_round + 1)
              ~iter:(iter_pk inbox) ~emit_all:(emit_all_pk emit_all);
            st
          end
          else begin
            (* line 18: fix the fallback outcome; broadcast and decide *)
            let pk = Phase_king.finalize_into pk ~iter:(iter_pk inbox) in
            match Phase_king.decision pk with
            | Some v ->
                emit_all ~lo:0
                  ~hi:(cfg.Sim.Config.n - 1)
                  ~skip:st.pid ~desc:false (Decided v);
                { st with phase = Done { core; value = v } }
            | None ->
                (* heard nothing all fallback long: resolve next round from
                   the line-18 broadcasts (terminal — no re-finalizing) *)
                { st with
                  phase = Undecided { core; value = Phase_king.value pk }
                }
          end
      | Undecided { core; value } -> (
          (* one round after line 18: adopt a broadcast decision if one
             reached us, else our own fallback value (we were the lone
             participant or are eclipsed-faulty); never broadcast *)
          match first_decided inbox with
          | Some v -> { st with phase = Done { core; value = v } }
          | None -> { st with phase = Done { core; value } })
      | Waiting { core } -> (
          (* line 19: adopt any decision that reaches us *)
          match first_decided inbox with
          | Some v -> { st with phase = Done { core; value = v } }
          | None -> st)

    (* Called 2n+ times per round, so the options are static atoms. *)
    let observe st =
      let core = core_of st.phase in
      {
        Sim.View.candidate = some_bit (Core.candidate core);
        operative = Core.operative core;
        decided =
          (match st.phase with
          | Done { value; _ } -> some_bit value
          | _ -> None);
      }

    let msg_bits = function
      | Core_msg m -> Core.msg_bits shared m
      | Pk_msg m -> Phase_king.msg_bits m
      | Decided _ -> 2

    let msg_hint = function
      | Core_msg m -> Core.msg_hint m
      | Pk_msg (Phase_king.Value v) | Pk_msg (Phase_king.King v) -> Some v
      | Decided v -> Some v
  end in
  (module M : Sim.Protocol_intf.BUFFERED)

(** Rounds the full schedule can occupy (voting + fallback), for sizing
    [Config.max_rounds]. *)
let rounds_needed ?(params = Params.default) (cfg : Sim.Config.t) =
  let t_max = cfg.Sim.Config.t_max in
  Core.schedule_length ~params ~t_max cfg.Sim.Config.n
  + Phase_king.rounds ~t_max + 4

let builder ?params () : Sim.Protocol_intf.builder =
  (module struct
    let name = "optimal"
    let build cfg = protocol_buffered ?params cfg
    let rounds_needed cfg = rounds_needed ?params cfg + 10
  end)
