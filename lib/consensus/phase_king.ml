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
    [decision = None] rather than fabricating a decision from its own echo —
    the caller owns the residue (Algorithm 1 lines 18-19 resolve it by
    adopting a broadcast decision). Inboxes are consumed through iterators,
    so a caller can hand in a filtered view of its own mailbox without
    building an intermediate list. *)

type msg = Value of int | King of int

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
  }

let king_of_phase st phase = phase mod st.n

let broadcast_into st m ~emit_all =
  emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false m

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
          | King _ | Value _ -> ());
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
      | King _ -> ());
  let m_p = c.(0) + c.(1) in
  let maj = if c.(1) >= c.(0) then 1 else 0 in
  st.maj <- (if m_p = 0 then st.v else maj);
  st.strong <- m_p > 0 && 2 * c.(maj) > m_p + (4 * st.t_max)

(** Local rounds are 1-based and run from 1 to [rounds ~t_max]. Odd rounds
    broadcast values (and first apply the previous king's verdict); even
    rounds count and let the king speak. The inbox is consumed through
    [iter]; every emission is a full broadcast (ascending destination
    order, one shared message record) handed to [emit_all]. *)
let step_into st ~local_round ~iter ~emit_all =
  if st.participating then begin
    let phase = (local_round - 1) / 2 in
    if local_round mod 2 = 1 then begin
      if phase > 0 then adopt st ~prev_phase:(phase - 1) ~iter;
      broadcast_into st (Value st.v) ~emit_all
    end
    else begin
      count st ~iter;
      if king_of_phase st phase = st.pid then
        broadcast_into st (King st.maj) ~emit_all
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

let decision st = st.decision
let value st = st.v
let heard st = st.heard
let msg_bits = function Value _ -> 2 | King _ -> 2

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

  let step_into (cfg : Sim.Config.t) st ~round ~inbox ~rand:_ ~emit:_
      ~emit_all =
    let last = rounds ~t_max:cfg.t_max in
    let iter f = Sim.Mailbox.iter inbox f in
    if round <= last then step_into st ~local_round:round ~iter ~emit_all
    else if round = last + 1 then ignore (finalize_into st ~iter : t);
    st

  let observe st =
    {
      Sim.View.candidate = Some st.v;
      operative = true;
      decided = st.decision;
    }

  let msg_bits = msg_bits
  let msg_hint = function Value v -> Some v | King v -> Some v
end

let protocol_buffered (_cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
  (module M)

let builder : Sim.Protocol_intf.builder =
  (module struct
    let name = "phase-king"
    let build = protocol_buffered
    let rounds_needed cfg = rounds_needed cfg + 1
  end)
