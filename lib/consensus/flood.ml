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
      if st.decided = None then st.decided <- Some (if st.zero then 0 else 1);
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
    (* Test the known flag first: once a value is known, the branch no
       longer depends on the message's bits, which are random per sender. *)
    Sim.Mailbox.iter inbox (fun _src (Values { zero; one }) ->
        if (not st.zero) && zero then st.zero <- true;
        if (not st.one) && one then st.one <- true);
    (match absorb st ~round with
    | None -> ()
    | Some (zero, one) ->
        (* one shared record, one broadcast entry for the whole round *)
        emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false
          (Values { zero; one }));
    st

  let observe st =
    {
      Sim.View.candidate =
        (if st.zero then some0 else if st.one then some1 else some0);
      operative = true;
      decided = st.decided;
    }

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
