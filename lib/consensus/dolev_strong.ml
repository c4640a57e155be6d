(** Dolev-Strong authenticated consensus — the paper's 40-year-old
    deterministic comparator ([15], Theorem 4): t+1 rounds of signed
    relaying, probability 1, against *any* t < n faults under
    authentication (simulated here by {!Auth}; see DESIGN.md).

    Every process acts as the designated sender of its own input in n
    parallel Dolev-Strong broadcasts. In round r, a relay message is
    accepted when it carries a valid chain of r distinct signatures
    starting at the origin; a newly accepted (origin, value) is co-signed
    and forwarded (at most two values per origin — a third changes
    nothing). After round t+1 every non-faulty process holds the same
    extracted value per origin (the classical chain argument: a chain of
    t+1 distinct signers contains a non-faulty one who relayed to all);
    the decision is the majority of extracted values.

    Complexities: t+2 rounds; O(n^2) messages per newly-accepted value
    giving the O(n * t) messages per broadcast, O(n^2 t) in total — the
    Theta(n) rounds / super-quadratic bits corner of Table 1 that
    Theorem 1 escapes. *)

type msg = Relay of { value : int; chain : Auth.signature list }

type state = {
  pid : int;
  n : int;
  t_max : int;
  (* values accepted per origin (at most 2 kept) *)
  accepted : (int, int list) Hashtbl.t;
  mutable to_relay : (int * Auth.signature list) list;  (** (value, chain) *)
  mutable decided : int option;
}

module M = struct
  type nonrec state = state
  type nonrec msg = msg

  let name = "dolev-strong"

  let init (cfg : Sim.Config.t) ~pid ~input =
    let st =
      {
        pid;
        n = cfg.n;
        t_max = cfg.t_max;
        accepted = Hashtbl.create 16;
        to_relay = [];
        decided = None;
      }
    in
    Hashtbl.replace st.accepted pid [ input ];
    st.to_relay <- [ (input, Auth.sign ~signer:pid ~payload:input ~chain:[]) ];
    st

  let accept st ~round ~value ~chain =
    match Auth.origin chain with
    | None -> ()
    | Some origin ->
        if
          Auth.valid_chain ~payload:value chain
          && Auth.length chain = round - 1
          && not (List.mem st.pid (List.map Auth.signer chain))
        then begin
          let known =
            match Hashtbl.find_opt st.accepted origin with
            | Some vs -> vs
            | None -> []
          in
          if (not (List.mem value known)) && List.length known < 2 then begin
            Hashtbl.replace st.accepted origin (value :: known);
            if round <= st.t_max + 1 then
              st.to_relay <-
                (value, Auth.sign ~signer:st.pid ~payload:value ~chain)
                :: st.to_relay
          end
        end

  let decide st =
    (* per origin: a uniquely-attested value counts; equivocation (never
       produced by omission faults) or silence contributes nothing *)
    let c = [| 0; 0 |] in
    Hashtbl.iter
      (fun _ vs -> match vs with [ v ] -> c.(v) <- c.(v) + 1 | _ -> ())
      st.accepted;
    st.decided <- Some (if c.(1) > c.(0) then 1 else 0)

  let step_into _cfg st ~round ~inbox ~rand:_ ~emit:_ ~emit_all =
    Sim.Mailbox.iter inbox (fun _src (Relay { value; chain }) ->
        accept st ~round ~value ~chain);
    if round > st.t_max + 1 then begin
      if st.decided = None then decide st;
      st
    end
    else begin
      (* acceptance order ([to_relay] is consed), one broadcast entry per
         relayed chain *)
      List.iter
        (fun (value, chain) ->
          emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false
            (Relay { value; chain }))
        (List.rev st.to_relay);
      st.to_relay <- [];
      st
    end

  let observe st =
    {
      Sim.View.candidate =
        (match Hashtbl.find_opt st.accepted st.pid with
        | Some [ v ] -> Some v
        | _ -> None);
      operative = true;
      decided = st.decided;
    }

  let msg_bits (Relay { chain; _ }) = 2 + Auth.bits chain
  let msg_hint (Relay { value; _ }) = Some value
end

let protocol_buffered (_cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
  (module M)

let builder : Sim.Protocol_intf.builder =
  (module struct
    let name = "dolev-strong"
    let build = protocol_buffered
    let rounds_needed (cfg : Sim.Config.t) = cfg.t_max + 3
  end)
