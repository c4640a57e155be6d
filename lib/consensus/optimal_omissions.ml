(** OptimalOmissionsConsensus — Algorithm 1 of the paper (Theorem 1 /
    Theorem 5): the voting {!Core} over all n processes, followed by the
    decision broadcast (lines 14-16) and, for the polynomially-unlikely
    undecided residue, the deterministic fallback (lines 17-19, here the
    {!Phase_king} tail — see DESIGN.md, substitution 3).

    Global round layout (V = [Core.rounds]):
    - rounds 1..V: the voting core (epochs + the line-14 broadcast slot);
    - round V+1: consume the broadcast (lines 15-16) and decide, or enter
      the tail: operative undecided processes as phase-king participants,
      the others idle until a line-18 decision reaches them;
    - from round V+2: the tail, including its residue round.

    The engine mailbox is read through message-kind iterators that filter
    during iteration — no intermediate [(src, msg) list] on the hot path. *)

type phase =
  | Voting of Core.t
  | Fallback of { core : Core.t; pk : Phase_king.t }
      (** lines 17-19, as a participant or idle *)
  | Done of { core : Core.t; value : int }

type state = { phase : phase; pid : int }
type msg = Core_msg of Core.msg | Pk_msg of Phase_king.msg

(* Top level, so the voting path passes [core_msg] without building a
   closure. *)
let core_msg m = Core_msg m

let wire =
  {
    Phase_king.wrap = (fun m -> Pk_msg m);
    unwrap = (function Pk_msg m -> m | Core_msg _ -> Phase_king.Other);
  }

(* [Some v] for a bit without allocating: the two static atoms. *)
let some_bit = function 0 -> Some 0 | 1 -> Some 1 | v -> Some v

let core_of = function
  | Voting c | Fallback { core = c; _ } | Done { core = c; _ } -> c

(* The per-round inbox's core messages, filtered during iteration. *)
let iter_core inbox f =
  Sim.Mailbox.iter inbox (fun src m ->
      match m with Core_msg cm -> f src cm | Pk_msg _ -> ())

(** Build the protocol for a given configuration. The shared structures
    (partition, expander, schedule) are computed once here — they are pure
    functions of (n, seed, params), which is how all processes agree on them
    without communication. *)
let protocol_buffered ?(params = Params.default) ?vote_log
    (cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
  let shared =
    Core.make_shared ?vote_log ~lo:0 ~m:cfg.Sim.Config.n
      ~seed:cfg.Sim.Config.seed ~params ~t_max:cfg.Sim.Config.t_max ()
  in
  let core_rounds = Core.rounds shared in
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
              let pk =
                Phase_king.start wire ~n:cfg.Sim.Config.n
                  ~t_max:cfg.Sim.Config.t_max ~pid:st.pid
                  ~participating:(Core.operative core)
                  ~input:(Core.candidate core) ~emit_all
              in
              { st with phase = Fallback { core; pk } })
      | Fallback { core; pk } -> (
          match Phase_king.advance wire pk ~inbox ~emit_all with
          | Decides v -> { st with phase = Done { core; value = v } }
          | Running | Undecided -> st)

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

    let msg_hint = function
      | Core_msg m -> Core.msg_hint m
      | Pk_msg m -> Phase_king.msg_hint m
  end in
  (module M : Sim.Protocol_intf.BUFFERED)

(** Rounds the full schedule can occupy (voting + fallback), for sizing
    [Config.max_rounds]. *)
let rounds_needed ?(params = Params.default) (cfg : Sim.Config.t) =
  let t_max = cfg.Sim.Config.t_max in
  Core.schedule_length ~params ~t_max cfg.Sim.Config.n
  + Phase_king.rounds ~t_max + 4

let builder ?params ?vote_log () : Sim.Protocol_intf.builder =
  (module struct
    let name = "optimal"
    let build cfg = protocol_buffered ?params ?vote_log cfg
    let rounds_needed cfg = rounds_needed ?params cfg + 10
  end)
