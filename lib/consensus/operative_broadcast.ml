(** Operative-partition reliable broadcast — the Section 6 "future
    directions" concept, implemented: *"the concept of operative processes,
    maintaining them locally at (relatively) low cost and using them for
    performing tasks such as efficient counting and information exchange,
    could be a game-changing concept"*.

    A designated source disseminates its input bit over the Theorem-4
    expander with the same operative-status discipline as
    GroupBitsSpreading: delta-gossip per link, heartbeats, permanent
    disregarding of silent neighbors, inoperative below Delta/3 received.
    Guarantee (from Lemmas 4-6): as long as the source stays operative,
    every operative process delivers within O(log n) rounds using
    O(n log^2 n) bits — against Theta(n^2) for naive broadcast and
    Theta(n^2 t) for authenticated broadcast, while still tolerating t
    adaptive omission faults.

    To fit the engine's decision interface: processes decide the delivered
    value; a process that heard nothing by the timeout decides the default
    0 (the source was faulty). If the source is non-faulty, the run is a
    consensus on its input. *)

type msg = Gossip of int  (** the source's value *) | Heartbeat

type state = {
  links : Links.t;
  mutable value : int option;
  mutable operative : bool;
  mutable value_sent : bool;
      (** to every live neighbour: see DESIGN.md §6, "one flag per group" *)
  mutable decided : int option;
}

let protocol_buffered ?(params = Params.default) ?(source = 0)
    (cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
  let n = cfg.Sim.Config.n in
  let delta = Params.delta params ~n in
  let graph =
    Expander.create_good ~attempts:params.Params.graph_attempts ~n ~delta
      ~seed:(Int64.of_int (cfg.Sim.Config.seed + 0xB0B)) ()
  in
  let rounds = 2 * Params.log2_ceil n in
  let module M = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = Printf.sprintf "operative-broadcast(src=%d)" source

    let init _cfg ~pid ~input =
      {
        links = Links.create graph pid;
        value = (if pid = source then Some input else None);
        operative = true;
        value_sent = false;
        decided = None;
      }

    (* Unlike the spreading of {!Core}, an inoperative process keeps
       hearing, adopting the value and disregarding silent links. *)
    let receive st ~inbox =
      Links.start st.links;
      Sim.Mailbox.iter inbox (fun src m ->
          if Links.hear st.links src then
            match m with
            | Gossip v -> if st.value = None then st.value <- Some v
            | Heartbeat -> ());
      if not (Links.close st.links) then st.operative <- false

    let step_into _cfg st ~round ~inbox ~rand:_ ~emit ~emit_all:_ =
      if round > 1 then receive st ~inbox;
      if round > rounds then begin
        if st.decided = None then
          st.decided <- Some (match st.value with Some v -> v | None -> 0)
      end
      else if st.operative then begin
        (* one shared record for every live neighbour *)
        let m =
          match st.value with
          | Some v when not st.value_sent ->
              st.value_sent <- true;
              Gossip v
          | Some _ | None -> Heartbeat
        in
        Links.emit_live st.links emit m
      end;
      st

    let observe st =
      {
        Sim.View.candidate = st.value;
        operative = st.operative;
        decided = st.decided;
      }

    let msg_bits = function Gossip _ -> 2 | Heartbeat -> 1
    let msg_hint = function Gossip v -> Some v | Heartbeat -> None
  end in
  (module M : Sim.Protocol_intf.BUFFERED)

let builder ?params ?(source = 0) () : Sim.Protocol_intf.builder =
  (module struct
    let name = "operative-broadcast"
    let build cfg = protocol_buffered ?params ~source cfg
    let rounds_needed (cfg : Sim.Config.t) = (2 * Params.log2_ceil cfg.n) + 3
  end)
