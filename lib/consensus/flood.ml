(** Classic deterministic flooding consensus for the crash model: t+1
    rounds of broadcasting the set of input values seen so far, then decide
    on the minimum.

    Baseline only. It is the textbook crash-tolerant algorithm (O(t) rounds,
    O(n^2 t) bits) used here as the deterministic comparator for the
    message-complexity row of Table 1 ([1]'s Omega(t^2) bound). Under
    *general omission* faults its validity condition (as the paper states
    it) does not hold — a faulty process can input a minority value late —
    which is exactly why the paper's algorithms are built differently; tests
    exercise it under crash adversaries only. *)

type msg = Values of { zero : bool; one : bool }

type state = {
  pid : int;
  n : int;
  rounds : int;  (** t_max + 1 *)
  mutable zero : bool;
  mutable one : bool;
  mutable sent_zero : bool;
  mutable sent_one : bool;
  mutable decided : int option;
}

let some0 = Some 0
let some1 = Some 1

(* The six observations a flood process can make, built once:
   candidate 0 or 1, undecided or decided 0 or 1. *)
let obs candidate decided =
  { Sim.View.candidate; operative = true; decided }

let obs0 = obs some0 None
let obs1 = obs some1 None
let obs0_d0 = obs some0 some0
let obs0_d1 = obs some0 some1
let obs1_d0 = obs some1 some0
let obs1_d1 = obs some1 some1

module M = struct
  type nonrec state = state
  type nonrec msg = msg

  let name = "flood-min"

  let init (cfg : Sim.Config.t) ~pid ~input =
    {
      pid;
      n = cfg.n;
      rounds = cfg.t_max + 1;
      zero = input = 0;
      one = input = 1;
      sent_zero = false;
      sent_one = false;
      decided = None;
    }

  (* Past the schedule, take the decision; inside it, return the newly
     learned values to flood this round ([None] when there is nothing to
     send — flooding only new values keeps the per-link traffic O(1)
     amortized). *)
  let absorb st ~round =
    if round > st.rounds then begin
      if st.decided = None then st.decided <- (if st.zero then some0 else some1);
      None
    end
    else begin
      let zero = st.zero && not st.sent_zero in
      let one = st.one && not st.sent_one in
      if zero then st.sent_zero <- true;
      if one then st.sent_one <- true;
      if zero || one then Some (zero, one) else None
    end

  let step_into _cfg st ~round ~inbox ~rand:_ ~emit:_ ~emit_all =
    (* A process that knows both values learns nothing from its inbox:
       it skips the read, and stops it as soon as both are known. Test
       the known flag first: once a value is known, the branch no longer
       depends on the message's bits, which are random per sender. *)
    if not (st.zero && st.one) then
      Sim.Mailbox.iter inbox (fun _src (Values { zero; one }) ->
          if (not st.zero) && zero then st.zero <- true;
          if (not st.one) && one then st.one <- true;
          if st.zero && st.one then raise_notrace Sim.Mailbox.Stop);
    (match absorb st ~round with
    | None -> ()
    | Some (zero, one) ->
        (* one shared record, one broadcast entry for the whole round *)
        emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false
          (Values { zero; one }));
    st

  (* Candidate 0 unless only 1 is known. *)
  let observe st =
    match (st.zero || not st.one, st.decided) with
    | true, None -> obs0
    | true, Some 0 -> obs0_d0
    | true, Some _ -> obs0_d1
    | false, None -> obs1
    | false, Some 0 -> obs1_d0
    | false, Some _ -> obs1_d1

  let msg_bits (Values _) = 2
  let msg_hint (Values { zero; _ }) = if zero then some0 else some1
end

let protocol_buffered (_cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
  (module M)

let builder : Sim.Protocol_intf.builder =
  (module struct
    let name = "flood"
    let build = protocol_buffered
    let rounds_needed (cfg : Sim.Config.t) = cfg.t_max + 3
  end)
