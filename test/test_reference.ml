(* Reference implementations as oracles for protocol rewrites that must
   not change a run. Each reference is the protocol as it was written
   before the rewrite, with its own types: flood reading every inbox
   entry and building a fresh observation each call, and Dolev-Strong
   keeping its accepted values per origin in a [Hashtbl]. Under every
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

let suite =
  [
    Alcotest.test_case "flood = full-read reference" `Quick test_flood;
    Alcotest.test_case "dolev-strong = Hashtbl reference" `Quick
      test_dolev_strong;
  ]
