(* Reference implementations as oracles for protocol rewrites that must
   not change a run. Each reference is the protocol as it was written
   before the rewrite, with its own types: flood reading every inbox
   entry and building a fresh observation each call, Dolev-Strong
   keeping its accepted values per origin in a [Hashtbl], the operative
   broadcast keeping its links in [Hashtbl]s, and early-stopping keeping
   its heard-from sets as [Set]s. Under every
   adversary a run spec can name, over several sizes and seeds, the
   registry protocol and its reference must give the same outcome and
   the same trace, byte for byte. *)

(* Flood as it read its inbox before the early stop: every entry, and
   an allocating [observe]. *)
module Ref_flood = struct
  type msg = Values of { zero : bool; one : bool }

  type state = {
    pid : int;
    n : int;
    rounds : int;
    mutable zero : bool;
    mutable one : bool;
    mutable sent_zero : bool;
    mutable sent_one : bool;
    mutable decided : int option;
  }

  let name = "flood-reference"

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

  let step_into _cfg st ~round ~inbox ~rand:_ ~emit:_ ~emit_all =
    Sim.Mailbox.iter inbox (fun _src (Values { zero; one }) ->
        if zero then st.zero <- true;
        if one then st.one <- true);
    if round > st.rounds then begin
      if st.decided = None then st.decided <- Some (if st.zero then 0 else 1)
    end
    else begin
      let zero = st.zero && not st.sent_zero in
      let one = st.one && not st.sent_one in
      if zero then st.sent_zero <- true;
      if one then st.sent_one <- true;
      if zero || one then
        emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false
          (Values { zero; one })
    end;
    st

  let observe st =
    {
      Sim.View.candidate =
        (if st.zero then Some 0 else if st.one then Some 1 else Some 0);
      operative = true;
      decided = st.decided;
    }

  let msg_bits (Values _) = 2
  let msg_hint (Values { zero; _ }) = if zero then Some 0 else Some 1
end

(* Dolev-Strong with its accepted values per origin in a [Hashtbl] of
   value lists. *)
module Ref_dolev_strong = struct
  module Auth = Consensus.Auth

  type msg = Relay of { value : int; chain : Auth.signature list }

  type state = {
    pid : int;
    n : int;
    t_max : int;
    accepted : (int, int list) Hashtbl.t;
    mutable to_relay : (int * Auth.signature list) list;
    mutable decided : int option;
  }

  let name = "dolev-strong-reference"

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
    let origin = Auth.origin chain in
    if
      origin >= 0
      && Auth.length chain = round - 1
      && (not (Auth.signed_by st.pid chain))
      && Auth.valid_chain ~payload:value chain
    then begin
      let known =
        Option.value ~default:[] (Hashtbl.find_opt st.accepted origin)
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
    let c = [| 0; 0 |] in
    Hashtbl.iter
      (fun _ vs -> match vs with [ v ] -> c.(v) <- c.(v) + 1 | _ -> ())
      st.accepted;
    st.decided <- Some (if c.(1) > c.(0) then 1 else 0)

  let step_into _cfg st ~round ~inbox ~rand:_ ~emit:_ ~emit_all =
    Sim.Mailbox.iter inbox (fun _src (Relay { value; chain }) ->
        accept st ~round ~value ~chain);
    if round > st.t_max + 1 then begin
      if st.decided = None then decide st
    end
    else begin
      List.iter
        (fun (value, chain) ->
          emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false
            (Relay { value; chain }))
        (List.rev st.to_relay);
      st.to_relay <- []
    end;
    st

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

(* The operative broadcast with its disregarded and sent-to links in
   [Hashtbl]s, a fresh received table each round, and an edge search per
   message. *)
module Ref_operative_broadcast = struct
  module Params = Consensus.Params

  type msg = Gossip of int | Heartbeat

  type state = {
    pid : int;
    rounds : int;
    graph : Expander.t;
    op_threshold : int;
    mutable value : int option;
    mutable operative : bool;
    sent_value_to : (int, unit) Hashtbl.t;
    disregarded : (int, unit) Hashtbl.t;
    mutable decided : int option;
  }

  let protocol (cfg : Sim.Config.t) : Sim.Protocol_intf.buffered =
    let params = Params.default and source = 0 in
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

      let name = "operative-broadcast-reference"

      let init _cfg ~pid ~input =
        {
          pid;
          rounds;
          graph;
          op_threshold = Expander.delta graph / 3;
          value = (if pid = source then Some input else None);
          operative = true;
          sent_value_to = Hashtbl.create 16;
          disregarded = Hashtbl.create 8;
          decided = None;
        }

      let receive st ~inbox =
        let received = Hashtbl.create 16 in
        Sim.Mailbox.iter inbox (fun src m ->
            if
              Expander.mem_edge st.graph st.pid src
              && not (Hashtbl.mem st.disregarded src)
            then begin
              Hashtbl.replace received src ();
              match m with
              | Gossip v -> if st.value = None then st.value <- Some v
              | Heartbeat -> ()
            end);
        Array.iter
          (fun q ->
            if
              (not (Hashtbl.mem st.disregarded q))
              && not (Hashtbl.mem received q)
            then Hashtbl.replace st.disregarded q ())
          (Expander.neighbors st.graph st.pid);
        if Hashtbl.length received < st.op_threshold then
          st.operative <- false

      let step_into _cfg st ~round ~inbox ~rand:_ ~emit ~emit_all:_ =
        if round > 1 then receive st ~inbox;
        if round > st.rounds then begin
          if st.decided = None then
            st.decided <- Some (match st.value with Some v -> v | None -> 0)
        end
        else if st.operative then begin
          let gm =
            match st.value with Some v -> Gossip v | None -> Heartbeat
          in
          let nb = Expander.neighbors st.graph st.pid in
          for i = Array.length nb - 1 downto 0 do
            let q = nb.(i) in
            if not (Hashtbl.mem st.disregarded q) then begin
              match st.value with
              | Some _ when not (Hashtbl.mem st.sent_value_to q) ->
                  Hashtbl.replace st.sent_value_to q ();
                  emit q gm
              | Some _ | None -> emit q Heartbeat
            end
          done
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
end

(* Early-stopping with a fresh [Set] of heard-from pids per process per
   round. *)
module Ref_early_stopping = struct
  module Int_set = Set.Make (Int)

  type msg = Val of { v : int; final : bool }

  type state = {
    pid : int;
    n : int;
    t_max : int;
    mutable v : int;
    mutable heard_prev : Int_set.t option;
    mutable decided : int option;
    mutable announced : bool;
  }

  let name = "early-stopping-reference"

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

  let process st ~round ~inbox =
    let final = ref None in
    Sim.Mailbox.iter inbox (fun _src (Val { v; final = fin }) ->
        if fin then begin
          final := Some v;
          raise_notrace Sim.Mailbox.Stop
        end);
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

(* A message-level sink that keeps the run's JSONL stream as a chain of
   MD5 digests over 64 KiB blocks, so a run of 10^5 events needs no
   event list. Equal streams give equal (count, digest) pairs. *)
let digest_sink () =
  let block = 1 lsl 16 in
  let buf = Buffer.create block and acc = ref "" and count = ref 0 in
  let flush () =
    acc := Digest.string (!acc ^ Buffer.contents buf);
    Buffer.clear buf
  in
  let sink =
    Trace.Sink.make
      ~emit:(fun e ->
        incr count;
        Buffer.add_string buf (Trace.Event.to_json e);
        Buffer.add_char buf '\n';
        if Buffer.length buf >= block then flush ())
      ~close:(fun () -> ())
  in
  ( sink,
    fun () ->
      flush ();
      (!count, Digest.to_hex !acc) )

(* One traced run of [proto] for a run spec's adversary and inputs. *)
let traced proto ~protocol ~adversary ~n ~t_max ~seed ~max_rounds =
  let spec =
    Run_spec.make ~adversary ~protocol ~n ~t_max ~seed ~inputs:"random" ()
  in
  let cfg = Sim.Config.make ~n ~t_max ~seed ~max_rounds () in
  let sink, digest = digest_sink () in
  let res =
    try
      Ok
        (Sim.Engine.run ~trace:sink (proto cfg) cfg
           ~adversary:(Run_spec.adversary spec)
           ~inputs:(Run_spec.inputs spec))
    with Sim.Engine.Illegal_plan m -> Error m
  in
  (res, digest ())

(* The registry protocol [protocol] against [reference] under every
   adversary a run spec names, at each (n, seeds) cell. *)
let check_against ~protocol ~reference ~t_of ~cells () =
  let entry = Result.get_ok (Harness.Registry.find protocol) in
  List.iter
    (fun (n, seeds) ->
      let t_max = t_of n in
      let max_rounds =
        Harness.Registry.rounds_bound entry (Sim.Config.make ~n ~t_max ())
      in
      List.iter
        (fun seed ->
          List.iter
            (fun adversary ->
              let run proto =
                traced proto ~protocol ~adversary ~n ~t_max ~seed ~max_rounds
              in
              let ctx =
                Printf.sprintf "%s n=%d t=%d seed=%d a=%s" protocol n t_max
                  seed adversary
              in
              let res, (events, digest) = run (Harness.Registry.build entry) in
              let res', (events', digest') = run reference in
              Alcotest.(check bool) (ctx ^ ": outcome") true (res = res');
              Alcotest.(check int) (ctx ^ ": trace events") events' events;
              Alcotest.(check string) (ctx ^ ": trace digest") digest' digest)
            Run_spec.Cli.adversary_names)
        seeds)
    cells

let test_flood =
  check_against ~protocol:"flood"
    ~reference:(fun _ -> (module Ref_flood : Sim.Protocol_intf.BUFFERED))
    ~t_of:(fun n -> max 4 (n / 8))
    ~cells:[ (12, [ 1; 2; 3 ]); (64, [ 1; 2; 3 ]); (300, [ 1; 2 ]) ]

let test_dolev_strong =
  check_against ~protocol:"dolev-strong"
    ~reference:(fun _ ->
      (module Ref_dolev_strong : Sim.Protocol_intf.BUFFERED))
    ~t_of:(fun n -> max 3 (n / 16))
    ~cells:[ (12, [ 1; 2; 3 ]); (32, [ 1; 2 ]); (64, [ 1 ]) ]

(* At n = 64 and 96 the expander's degree is below n - 1, so links are
   disregarded; at the registry grid's n = 12 the graph is complete. *)
let test_operative_broadcast =
  check_against ~protocol:"operative-broadcast"
    ~reference:Ref_operative_broadcast.protocol
    ~t_of:(fun n -> max 3 (n / 16))
    ~cells:[ (12, [ 1 ]); (64, [ 1; 2 ]); (96, [ 1 ]) ]

let test_early_stopping =
  check_against ~protocol:"early-stopping"
    ~reference:(fun _ ->
      (module Ref_early_stopping : Sim.Protocol_intf.BUFFERED))
    ~t_of:(fun n -> max 4 (n / 8))
    ~cells:[ (12, [ 1; 2; 3 ]); (64, [ 1; 2 ]); (128, [ 1 ]) ]

let suite =
  [
    Alcotest.test_case "flood = full-read reference" `Quick test_flood;
    Alcotest.test_case "dolev-strong = Hashtbl reference" `Quick
      test_dolev_strong;
    Alcotest.test_case "operative-broadcast = Hashtbl reference" `Quick
      test_operative_broadcast;
    Alcotest.test_case "early-stopping = Set reference" `Quick
      test_early_stopping;
  ]
