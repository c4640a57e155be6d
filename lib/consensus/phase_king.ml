(** Deterministic omission-tolerant consensus — the fallback the paper
    invokes as "[15], Theorem 4" (Dolev-Strong). Dolev-Strong needs an
    authenticated setup the omission model does not provide, so we use a
    phase-king variant with the same interface the paper relies on:
    deterministic, O(t) rounds, O(n^2 t) bits, probability-1 agreement
    (DESIGN.md, substitution 3).

    Structure: K = 4 t + 2 phases of two rounds each. In the first round of
    a phase every participant broadcasts its value; in the second the phase's
    king (phase k's king is process k mod n) broadcasts the majority it saw.
    A participant keeps its majority value when the count clears m/2 + 2t
    (m = values it received) and otherwise adopts the king's value.

    Why this is correct under adaptive omissions with participants U:
    - faulty processes follow the protocol, so message *contents* are always
      honest — with unanimous inputs every message carries the common value
      and validity holds for any U and any t;
    - when U is the whole operative set (|U| >= n - 3t, t < n/30), counts at
      non-faulty participants differ by at most t, the strong threshold
      separates, and among kings 0..4t+1 at least one is a non-faulty
      participant (at most t faulty + 3t inoperative), after whose phase all
      non-faulty participants agree and stay strong.
    The two cases are exactly the ones Lemma 11 of the paper needs.

    A participant that hears *nothing* for the whole run (possible only for
    a faulty process fully eclipsed by the adversary) ends with
    [decision = None] rather than fabricating a decision from its own echo;
    the tail below ({!start}, {!advance}) resolves it. Inboxes are consumed
    through iterators, so no intermediate list is built. *)

type msg = Value of int | King of int | Decided of int | Other

type t = {
  n : int;
  t_max : int;
  pid : int;
  participating : bool;
  mutable v : int;
  mutable maj : int;
  mutable strong : bool;
  mutable heard : bool;  (** received any fallback message this run *)
  mutable decision : int option;
  mutable round : int;  (** the tail's local round; 0 outside a tail *)
}

let phases ~t_max = (4 * t_max) + 2

(** Number of engine rounds the protocol occupies (two per phase); the
    decision is available after one further call to {!finalize_into}. *)
let rounds ~t_max = 2 * phases ~t_max

let create ~n ~t_max ~pid ~participating ~input =
  if input <> 0 && input <> 1 then invalid_arg "Phase_king.create: input bit";
  {
    n;
    t_max;
    pid;
    participating;
    v = input;
    maj = input;
    strong = false;
    heard = false;
    decision = None;
    round = 0;
  }

let king_of_phase st phase = phase mod st.n

let broadcast_into st m ~wrap ~emit_all =
  emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false (wrap m)

(* Adoption rule executed on entry to a phase, consuming the previous
   phase's king message. *)
let adopt st ~prev_phase ~iter =
  let king = king_of_phase st prev_phase in
  let king_value =
    if king = st.pid && st.participating then Some st.maj
    else begin
      let acc = ref None in
      iter (fun src m ->
          match m with
          | King v when src = king ->
              st.heard <- true;
              if !acc = None then acc := Some v
          | King _ | Value _ | Decided _ | Other -> ());
      !acc
    end
  in
  if st.strong then st.v <- st.maj
  else
    match king_value with Some v -> st.v <- v | None -> st.v <- st.maj

(* Counting rule executed on entry to a phase's second round, consuming the
   participants' value broadcasts. Own value counts (no self-messages go
   through the engine). *)
let count st ~iter =
  let c = [| 0; 0 |] in
  if st.participating then c.(st.v) <- c.(st.v) + 1;
  iter (fun _src m ->
      match m with
      | Value v ->
          st.heard <- true;
          c.(v) <- c.(v) + 1
      | King _ | Decided _ | Other -> ());
  let m_p = c.(0) + c.(1) in
  let maj = if c.(1) >= c.(0) then 1 else 0 in
  st.maj <- (if m_p = 0 then st.v else maj);
  st.strong <- m_p > 0 && 2 * c.(maj) > m_p + (4 * st.t_max)

(** Local rounds are 1-based and run from 1 to [rounds ~t_max]. Odd rounds
    broadcast values (and first apply the previous king's verdict); even
    rounds count and let the king speak. The inbox is consumed through
    [iter]; every emission is a full broadcast (ascending destination
    order, one shared message record) of one [wrap]ped record. *)
let step_into st ~local_round ~iter ~wrap ~emit_all =
  if st.participating then begin
    let phase = (local_round - 1) / 2 in
    if local_round mod 2 = 1 then begin
      if phase > 0 then adopt st ~prev_phase:(phase - 1) ~iter;
      broadcast_into st (Value st.v) ~wrap ~emit_all
    end
    else begin
      count st ~iter;
      if king_of_phase st phase = st.pid then
        broadcast_into st (King st.maj) ~wrap ~emit_all
    end
  end

(** Consume the last phase's king message and
    fix the decision — unless the participant heard nothing at all, in
    which case the run ends undecided (see the header note). *)
let finalize_into st ~iter =
  if st.participating then begin
    adopt st ~prev_phase:(phases ~t_max:st.t_max - 1) ~iter;
    st.decision <- (if st.heard then Some st.v else None)
  end;
  st

(* The step-or-finalize choice: local rounds 1 .. [rounds] step, the
   round after them finalizes, later rounds do nothing. *)
let drive st ~local_round ~iter ~wrap ~emit_all =
  let last = rounds ~t_max:st.t_max in
  if local_round <= last then step_into st ~local_round ~iter ~wrap ~emit_all
  else if local_round = last + 1 then ignore (finalize_into st ~iter : t)

let decision st = st.decision
let value st = st.v
let heard st = st.heard
let msg_bits = function Value _ | King _ | Decided _ -> 2 | Other -> 0

let msg_hint = function
  | Value v | King v | Decided v -> Some v
  | Other -> None

(* --- the tail of Algorithm 1 (lines 17-19) --- *)

type 'm wire = { wrap : msg -> 'm; unwrap : 'm -> msg }
type outcome = Running | Decides of int | Undecided

let no_messages _f = ()

let start w ~n ~t_max ~pid ~participating ~input ~emit_all =
  let st = create ~n ~t_max ~pid ~participating ~input in
  st.round <- 1;
  drive st ~local_round:1 ~iter:no_messages ~wrap:w.wrap ~emit_all;
  st

(* Line 19: the first [Decided] in the inbox; the read stops there. *)
let first_decided w inbox =
  let first = ref None in
  Sim.Mailbox.iter inbox (fun _src m ->
      match w.unwrap m with
      | Decided v ->
          first := Some v;
          raise_notrace Sim.Mailbox.Stop
      | Value _ | King _ | Other -> ());
  !first

let advance w st ~inbox ~emit_all =
  st.round <- st.round + 1;
  let last = rounds ~t_max:st.t_max in
  if not st.participating then
    match first_decided w inbox with Some v -> Decides v | None -> Running
  else if st.round <= last + 1 then begin
    let iter f = Sim.Mailbox.iter inbox (fun src m -> f src (w.unwrap m)) in
    drive st ~local_round:st.round ~iter ~wrap:w.wrap ~emit_all;
    if st.round <= last then Running
    else
      match st.decision with
      | Some v ->
          (* line 18: the fallback decider broadcasts its decision *)
          broadcast_into st (Decided v) ~wrap:w.wrap ~emit_all;
          Decides v
      | None -> Undecided
  end
  else
    (* the residue round: adopt a line-18 decision if one arrived, else
       self-decide the working value *)
    Decides (Option.value (first_decided w inbox) ~default:st.v)

(* --- standalone protocol wrapper --- *)

let rounds_needed (cfg : Sim.Config.t) = rounds ~t_max:cfg.t_max + 1

(** Phase-king as a standalone protocol: every process participates, the
    decision lands one round after the last phase (the {!finalize_into}
    round). Deterministic; tolerates adaptive omissions for
    t < n/6 (the strong-threshold separation argument) — at that budget a
    non-faulty process always hears a co-participant, so only fully
    eclipsed faulty processes can end undecided. *)
module M = struct
  type nonrec state = t
  type nonrec msg = msg

  let name = "phase-king"

  let init (cfg : Sim.Config.t) ~pid ~input =
    create ~n:cfg.n ~t_max:cfg.t_max ~pid ~participating:true ~input

  let step_into _cfg st ~round ~inbox ~rand:_ ~emit:_ ~emit_all =
    let iter f = Sim.Mailbox.iter inbox f in
    drive st ~local_round:round ~iter ~wrap:Fun.id ~emit_all;
    st

  let observe st =
    {
      Sim.View.candidate = Some st.v;
      operative = true;
      decided = st.decision;
    }

  let msg_bits = msg_bits
  let msg_hint = msg_hint
end

let protocol_buffered (_cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
  (module M)

let builder : Sim.Protocol_intf.builder =
  (module struct
    let name = "phase-king"
    let build = protocol_buffered
    let rounds_needed cfg = rounds_needed cfg + 1
  end)
