(** Early-stopping consensus for the crash model — the classic
    early-deciding algorithm the paper's related-work section contrasts
    with ([33, 34] study the omission-model variants; the crash version is
    the textbook one and serves as the adaptive-runtime baseline).

    Every round each live undecided process broadcasts its current minimum.
    A process decides at the first round in which its heard-from set did
    not shrink (a *clean* round: no failure newly visible to it), or at
    round t+2 at the latest. Each dirty round witnesses at least one fresh
    crash, so a run with f actual crashes decides in at most f+2 rounds —
    O(f) adaptive, against the fixed t+1 of flooding. A clean round also
    guarantees the local minimum is stable: any smaller value still in
    flight would have to travel through a crashing process, whose crash
    either delivered it here too or shrank the heard set.

    Deciders announce once ([final]); receivers adopt. Crash-model
    guarantees only (tests run it under crash adversaries). *)

type msg = Val of { v : int; final : bool }

module Int_set = Set.Make (Int)

type state = {
  pid : int;
  n : int;
  t_max : int;
  mutable v : int;
  mutable heard_prev : Int_set.t option;  (** heard-from set, last round *)
  mutable decided : int option;
  mutable announced : bool;
}

module M = struct
  type nonrec state = state
  type nonrec msg = msg

  let name = "early-stopping"

  let init (cfg : Sim.Config.t) ~pid ~input =
    {
      pid;
      n = cfg.n;
      t_max = cfg.t_max;
      v = input;
      heard_prev = None;
      decided = None;
      announced = false;
    }

  let broadcast_into st m ~emit_all =
    emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false m

  (* Two passes over the inbox: first scan for a decision announcement,
     then — absent one — collect the heard-from set and the minimum. *)
  let process st ~round ~inbox =
    let final = ref None in
    Sim.Mailbox.iter inbox (fun _src (Val { v; final = fin }) ->
        if fin && !final = None then final := Some v);
    match !final with
    | Some v ->
        st.v <- v;
        st.decided <- Some v
    | None ->
        let heard = ref (Int_set.singleton st.pid) in
        Sim.Mailbox.iter inbox (fun src (Val { v; _ }) ->
            heard := Int_set.add src !heard;
            if v < st.v then st.v <- v);
        let clean =
          match st.heard_prev with
          | Some prev -> Int_set.subset prev !heard
          | None -> false
        in
        st.heard_prev <- Some !heard;
        if clean || round > st.t_max + 2 then st.decided <- Some st.v

  (* One shared message record per broadcast, in ascending destination
     order. *)
  let step_into _cfg st ~round ~inbox ~rand:_ ~emit:_ ~emit_all =
    if round > 1 && st.decided = None then process st ~round ~inbox;
    (match st.decided with
    | Some v when not st.announced ->
        st.announced <- true;
        broadcast_into st (Val { v; final = true }) ~emit_all
    | Some _ -> ()
    | None -> broadcast_into st (Val { v = st.v; final = false }) ~emit_all);
    st

  let observe st =
    { Sim.View.candidate = Some st.v; operative = true; decided = st.decided }

  let msg_bits (Val _) = 3
  let msg_hint (Val { v; _ }) = Some v
end

let protocol_buffered (_cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
  (module M)

let builder : Sim.Protocol_intf.builder =
  (module struct
    let name = "early-stopping"
    let build = protocol_buffered
    let rounds_needed (cfg : Sim.Config.t) = cfg.t_max + 5
  end)
