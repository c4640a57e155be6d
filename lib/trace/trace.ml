(* Structured per-round event tracing: the measurement instrument behind
   the paper's per-round resource flows (rounds, communication bits, random
   bits) and the debugging tool behind quarantine records. See trace.mli. *)

(* ------------------------------------------------------------------ *)
(* Events.                                                             *)
(* ------------------------------------------------------------------ *)

module Event = struct
  type t =
    | Round_start of { round : int }
    | Send of { round : int; src : int; dst : int; bits : int; hint : int option }
    | Corrupt of { round : int; pid : int }
    | Omit of { round : int; src : int; dst : int }
    | Deliver of { round : int; src : int; dst : int }
    | Coin of { round : int; pid : int; calls : int; bits : int }
    | Phase of { round : int; pid : int; operative : bool; candidate : int option }
    | Decide of { round : int; pid : int; value : int }
    | Round_end of {
        round : int;
        messages : int;
        bits : int;
        omitted : int;
        rand_calls : int;
        rand_bits : int;
      }
    (* Link-layer events (lib/net): emitted only by a lossy transport, never
       by the engine itself, so linkless traces are unchanged. *)
    | Drop of { round : int; src : int; dst : int; attempt : int }
    | Dup of { round : int; src : int; dst : int; copies : int }
    | Delay of { round : int; src : int; dst : int; slots : int }
    | Retransmit of { round : int; src : int; dst : int; attempt : int; backoff : int }
    | Ack of { round : int; src : int; dst : int; attempt : int }
    | Degrade of { round : int; src : int; dst : int; attempts : int }
    (* cache provenance: the run was not executed — its outcome was
       served from a content-addressed store under [key] (the hex
       digest, never the raw spec). Emitted before any round event. *)
    | Cache_hit of { key : string }

  let round = function
    | Cache_hit _ -> 0
    | Round_start { round }
    | Send { round; _ }
    | Corrupt { round; _ }
    | Omit { round; _ }
    | Deliver { round; _ }
    | Coin { round; _ }
    | Phase { round; _ }
    | Decide { round; _ }
    | Round_end { round; _ }
    | Drop { round; _ }
    | Dup { round; _ }
    | Delay { round; _ }
    | Retransmit { round; _ }
    | Ack { round; _ }
    | Degrade { round; _ } ->
        round

  let is_message = function
    | Send _ | Omit _ | Deliver _ | Drop _ | Dup _ | Delay _ | Retransmit _
    | Ack _ | Degrade _ ->
        true
    | Round_start _ | Corrupt _ | Coin _ | Phase _ | Decide _ | Round_end _
    | Cache_hit _ ->
        false

  let equal (a : t) (b : t) = a = b

  (* The trace format, said once: each constructor's wire name, then its
     fields in wire order. [to_json] and [Sink.file] write it. *)
  let fields e : Jsonl.fields =
    let open Jsonl in
    let opt = function None -> Null | Some v -> I v in
    let msg round src dst rest =
      ("round", I round) :: ("src", I src) :: ("dst", I dst) :: rest
    in
    let name, fs =
      match e with
      | Round_start { round } -> ("round-start", [ ("round", I round) ])
      | Send { round; src; dst; bits; hint } ->
          ("send", msg round src dst [ ("bits", I bits); ("hint", opt hint) ])
      | Corrupt { round; pid } ->
          ("corrupt", [ ("round", I round); ("pid", I pid) ])
      | Omit { round; src; dst } -> ("omit", msg round src dst [])
      | Deliver { round; src; dst } -> ("deliver", msg round src dst [])
      | Coin { round; pid; calls; bits } ->
          ( "coin",
            [ ("round", I round); ("pid", I pid); ("calls", I calls);
              ("bits", I bits) ] )
      | Phase { round; pid; operative; candidate } ->
          ( "phase",
            [ ("round", I round); ("pid", I pid); ("operative", B operative);
              ("candidate", opt candidate) ] )
      | Decide { round; pid; value } ->
          ("decide", [ ("round", I round); ("pid", I pid); ("value", I value) ])
      | Round_end { round; messages; bits; omitted; rand_calls; rand_bits } ->
          ( "round-end",
            [ ("round", I round); ("messages", I messages); ("bits", I bits);
              ("omitted", I omitted); ("rand_calls", I rand_calls);
              ("rand_bits", I rand_bits) ] )
      | Drop { round; src; dst; attempt } ->
          ("drop", msg round src dst [ ("attempt", I attempt) ])
      | Dup { round; src; dst; copies } ->
          ("dup", msg round src dst [ ("copies", I copies) ])
      | Delay { round; src; dst; slots } ->
          ("delay", msg round src dst [ ("slots", I slots) ])
      | Retransmit { round; src; dst; attempt; backoff } ->
          ( "retransmit",
            msg round src dst [ ("attempt", I attempt); ("backoff", I backoff) ] )
      | Ack { round; src; dst; attempt } ->
          ("ack", msg round src dst [ ("attempt", I attempt) ])
      | Degrade { round; src; dst; attempts } ->
          ("degrade", msg round src dst [ ("attempts", I attempts) ])
      | Cache_hit { key } -> ("cache-hit", [ ("key", S key) ])
    in
    ("ev", S name) :: fs

  let to_json e = Jsonl.obj (fields e)

  let of_json line =
    match Jsonl.read line with
    | None -> None
    | Some fs -> (
        let get f k = match f fs k with Some v -> v | None -> raise Exit in
        let int = get Jsonl.int in
        let opt k =
          match List.assoc_opt k fs with
          | Some Jsonl.Null -> None
          | Some (Jsonl.I v) -> Some v
          | _ -> raise Exit
        in
        match
          match get Jsonl.string "ev" with
          | "round-start" -> Round_start { round = int "round" }
          | "send" ->
              Send
                {
                  round = int "round";
                  src = int "src";
                  dst = int "dst";
                  bits = int "bits";
                  hint = opt "hint";
                }
          | "corrupt" -> Corrupt { round = int "round"; pid = int "pid" }
          | "omit" ->
              Omit { round = int "round"; src = int "src"; dst = int "dst" }
          | "deliver" ->
              Deliver
                { round = int "round"; src = int "src"; dst = int "dst" }
          | "coin" ->
              Coin
                {
                  round = int "round";
                  pid = int "pid";
                  calls = int "calls";
                  bits = int "bits";
                }
          | "phase" ->
              Phase
                {
                  round = int "round";
                  pid = int "pid";
                  operative = get Jsonl.bool "operative";
                  candidate = opt "candidate";
                }
          | "decide" ->
              Decide
                { round = int "round"; pid = int "pid"; value = int "value" }
          | "round-end" ->
              Round_end
                {
                  round = int "round";
                  messages = int "messages";
                  bits = int "bits";
                  omitted = int "omitted";
                  rand_calls = int "rand_calls";
                  rand_bits = int "rand_bits";
                }
          | "drop" ->
              Drop
                {
                  round = int "round";
                  src = int "src";
                  dst = int "dst";
                  attempt = int "attempt";
                }
          | "dup" ->
              Dup
                {
                  round = int "round";
                  src = int "src";
                  dst = int "dst";
                  copies = int "copies";
                }
          | "delay" ->
              Delay
                {
                  round = int "round";
                  src = int "src";
                  dst = int "dst";
                  slots = int "slots";
                }
          | "retransmit" ->
              Retransmit
                {
                  round = int "round";
                  src = int "src";
                  dst = int "dst";
                  attempt = int "attempt";
                  backoff = int "backoff";
                }
          | "ack" ->
              Ack
                {
                  round = int "round";
                  src = int "src";
                  dst = int "dst";
                  attempt = int "attempt";
                }
          | "degrade" ->
              Degrade
                {
                  round = int "round";
                  src = int "src";
                  dst = int "dst";
                  attempts = int "attempts";
                }
          | "cache-hit" -> Cache_hit { key = get Jsonl.string "key" }
          | _ -> raise Exit
        with
        | e -> Some e
        | exception Exit -> None)
end

(* ------------------------------------------------------------------ *)
(* Sinks.                                                              *)
(* ------------------------------------------------------------------ *)

module Run = struct
  let size ~lo ~hi ~skip =
    if hi < lo then 0 else hi - lo + 1 - if skip >= lo && skip <= hi then 1 else 0

  (* The one statement of a run's order: [lo] up to [hi], or [hi] down to
     [lo] when [desc], stepping over [skip]. [nth], the [k]th destination
     in that order (from 0, for [k < size]), says the same in O(1), for
     the ring's evictions. *)
  let iter ~lo ~hi ~skip ~desc f =
    if desc then
      for dst = hi downto lo do
        if dst <> skip then f dst
      done
    else
      for dst = lo to hi do
        if dst <> skip then f dst
      done

  let nth ~lo ~hi ~skip ~desc k =
    if desc then
      let d = hi - k in
      if skip <= hi && skip >= d then d - 1 else d
    else
      let d = lo + k in
      if skip >= lo && skip <= d then d + 1 else d
end

module Sink = struct
  (* [messages]: the sink consumes message-level events, so the engine
     reports them. [send]/[omit]/[deliver] take a message-level event's
     fields, and [sends]/[fates] a run of them, so a sink that stores
     fields need not build the events. *)
  type t = {
    emit : Event.t -> unit;
    send :
      round:int -> src:int -> dst:int -> bits:int -> hint:int option -> unit;
    omit : round:int -> src:int -> dst:int -> unit;
    deliver : round:int -> src:int -> dst:int -> unit;
    sends :
      round:int -> src:int -> lo:int -> hi:int -> skip:int -> desc:bool ->
      bits:int -> hint:int option -> unit;
    fates :
      round:int -> src:int -> lo:int -> hi:int -> skip:int -> desc:bool ->
      omitted:bool -> unit;
    close : unit -> unit;
    messages : bool;
  }

  let make ~emit ~close =
    {
      emit;
      send =
        (fun ~round ~src ~dst ~bits ~hint ->
          emit (Event.Send { round; src; dst; bits; hint }));
      omit = (fun ~round ~src ~dst -> emit (Event.Omit { round; src; dst }));
      deliver =
        (fun ~round ~src ~dst -> emit (Event.Deliver { round; src; dst }));
      sends =
        (fun ~round ~src ~lo ~hi ~skip ~desc ~bits ~hint ->
          Run.iter ~lo ~hi ~skip ~desc (fun dst ->
              emit (Event.Send { round; src; dst; bits; hint })));
      fates =
        (fun ~round ~src ~lo ~hi ~skip ~desc ~omitted ->
          Run.iter ~lo ~hi ~skip ~desc (fun dst ->
              emit
                (if omitted then Event.Omit { round; src; dst }
                 else Event.Deliver { round; src; dst })));
      close;
      messages = true;
    }

  let emit t e = t.emit e

  (* The entry points are the fields themselves, so applying one to the
     sink alone allocates nothing. *)
  let send t = t.send
  let omit t = t.omit
  let deliver t = t.deliver
  let sends t = t.sends
  let fates t = t.fates
  let close t = t.close ()
  let messages t = t.messages
  let no_verdict ~round:_ ~src:_ ~dst:_ = ()

  let null =
    {
      emit = ignore;
      send = (fun ~round:_ ~src:_ ~dst:_ ~bits:_ ~hint:_ -> ());
      omit = no_verdict;
      deliver = no_verdict;
      sends =
        (fun ~round:_ ~src:_ ~lo:_ ~hi:_ ~skip:_ ~desc:_ ~bits:_ ~hint:_ -> ());
      fates = (fun ~round:_ ~src:_ ~lo:_ ~hi:_ ~skip:_ ~desc:_ ~omitted:_ -> ());
      close = ignore;
      messages = false;
    }

  let rounds s =
    {
      null with
      emit = (fun e -> if not (Event.is_message e) then s.emit e);
      close = s.close;
    }

  (* Message-level calls go only to the sides that take them: a side
     that is round-level would ignore them. *)
  let tee a b =
    let emit e =
      a.emit e;
      b.emit e
    and close () =
      a.close ();
      b.close ()
    in
    match (a.messages, b.messages) with
    | true, false -> { a with emit; close }
    | false, true -> { b with emit; close }
    | false, false -> { null with emit; close }
    | true, true ->
        {
          emit;
          send =
            (fun ~round ~src ~dst ~bits ~hint ->
              a.send ~round ~src ~dst ~bits ~hint;
              b.send ~round ~src ~dst ~bits ~hint);
          omit =
            (fun ~round ~src ~dst ->
              a.omit ~round ~src ~dst;
              b.omit ~round ~src ~dst);
          deliver =
            (fun ~round ~src ~dst ->
              a.deliver ~round ~src ~dst;
              b.deliver ~round ~src ~dst);
          sends =
            (fun ~round ~src ~lo ~hi ~skip ~desc ~bits ~hint ->
              a.sends ~round ~src ~lo ~hi ~skip ~desc ~bits ~hint;
              b.sends ~round ~src ~lo ~hi ~skip ~desc ~bits ~hint);
          fates =
            (fun ~round ~src ~lo ~hi ~skip ~desc ~omitted ->
              a.fates ~round ~src ~lo ~hi ~skip ~desc ~omitted;
              b.fates ~round ~src ~lo ~hi ~skip ~desc ~omitted);
          close;
          messages = true;
        }

  let tee_all = function
    | [] -> null
    | [ s ] -> s
    | s :: rest -> List.fold_left tee s rest

  let memory () =
    let acc = ref [] in
    ( make ~emit:(fun e -> acc := e :: !acc) ~close:(fun () -> ()),
      fun () -> List.rev !acc )

  (* One line per event: the buffer, cleared and reused for each event,
     goes whole to the channel, so nothing waits outside it. *)
  let file ~path =
    let ch = open_out_bin path in
    let b = Buffer.create 256 in
    make
      ~emit:(fun e ->
        Buffer.clear b;
        Jsonl.add_obj b (Event.fields e);
        Buffer.add_char b '\n';
        Buffer.output_buffer ch b)
      ~close:(fun () -> close_out ch)
end

(* ------------------------------------------------------------------ *)
(* Preallocated event ring.                                            *)
(* ------------------------------------------------------------------ *)

module Ring = struct
  (* Entries, oldest first, fill slots [head .. head + used - 1] (mod
     capacity); slot [i]'s [kinds.(i)] says where its entry lives. A
     single [Send], [Omit] or [Deliver] lives in the int columns at [i]
     ([bits] and [hint] for [Send] only), the kind telling [Send]'s
     [hint = None] ([Sent]) from [Some] ([Sent_hinted]). A run of two or
     more events keeps its first and last destination, in event order, in
     [dst] and [bits] and its skip in [hint]; a run of [Send]s takes a
     second slot ([More]) for its [bits] and [hint]. So an entry of [c]
     events takes at most [c] slots, and [capacity] slots hold the newest
     [capacity] events. Storing a message-level event or run stores
     immediates only: it allocates nothing and needs no write barrier.
     Every other event is kept as is in [boxed.(i)]. A boxed cell a
     message event has since overwritten keeps its old event alive until
     reused: at most [capacity] events. The module keeps its helpers
     few: each is a field of the module's block, allocated when the
     program starts, and a larger block moved every workload's peak
     heap by one 32 KB pool. *)
  type kind =
    | Boxed
    | Sent
    | Sent_hinted
    | Omitted
    | Delivered
    | Sent_run
    | Sent_hinted_run
    | Omitted_run
    | Delivered_run
    | More

  type t = {
    kinds : kind array;
    round : int array;
    src : int array;
    dst : int array;
    bits : int array;
    hint : int array;
    boxed : Event.t array;
    mutable head : int;  (** the oldest entry's slot *)
    mutable used : int;  (** slots in use *)
    mutable len : int;  (** events retained *)
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity must be > 0";
    let column () = Array.make capacity 0 in
    {
      kinds = Array.make capacity Boxed;
      round = column ();
      src = column ();
      dst = column ();
      bits = column ();
      hint = column ();
      boxed = Array.make capacity (Event.Round_start { round = 0 });
      head = 0;
      used = 0;
      len = 0;
    }

  let capacity t = Array.length t.kinds
  let length t = t.len

  (* The events of the entry at slot [i]. *)
  let count t i =
    match t.kinds.(i) with
    | Sent_run | Sent_hinted_run | Omitted_run | Delivered_run ->
        let a = t.dst.(i) and b = t.bits.(i) in
        Run.size ~lo:(min a b) ~hi:(max a b) ~skip:t.hint.(i)
    | Boxed | Sent | Sent_hinted | Omitted | Delivered | More -> 1

  (* Evicts from the oldest end until [e] more events fit ([e <=
     capacity]). The oldest entry goes whole, or loses its oldest events
     when it holds more than need to go: a run of [Send]s left with one
     event becomes a single [Send] in its second slot. *)
  let make_room t e =
    let cap = capacity t in
    let excess = ref (t.len + e - cap) in
    while !excess > 0 do
      let i = t.head in
      let c = count t i in
      let s = match t.kinds.(i) with Sent_run | Sent_hinted_run -> 2 | _ -> 1 in
      if c <= !excess then begin
        t.head <- (i + s) mod cap;
        t.used <- t.used - s;
        t.len <- t.len - c;
        excess := !excess - c
      end
      else begin
        let a = t.dst.(i) and b = t.bits.(i) in
        let first =
          Run.nth ~lo:(min a b) ~hi:(max a b) ~skip:t.hint.(i) ~desc:(a > b)
            !excess
        in
        if s = 2 && first = b then begin
          let j = (i + 1) mod cap in
          t.kinds.(j) <- (if t.kinds.(i) = Sent_run then Sent else Sent_hinted);
          t.round.(j) <- t.round.(i);
          t.src.(j) <- t.src.(i);
          t.dst.(j) <- first;
          t.head <- j;
          t.used <- t.used - 1
        end
        else t.dst.(i) <- first;
        t.len <- t.len - !excess;
        excess := 0
      end
    done

  (* Claims [s] slots for an entry of [e] events and stores its kind and
     common fields; returns its first slot. *)
  let claim t kind ~e ~s round src dst =
    make_room t e;
    let i = t.head + t.used in
    let i = if i >= capacity t then i - capacity t else i in
    t.used <- t.used + s;
    t.len <- t.len + e;
    Array.unsafe_set t.kinds i kind;
    Array.unsafe_set t.round i round;
    Array.unsafe_set t.src i src;
    Array.unsafe_set t.dst i dst;
    i

  let add_send t round src dst bits hint =
    match hint with
    | None ->
        let i = claim t Sent ~e:1 ~s:1 round src dst in
        Array.unsafe_set t.bits i bits
    | Some h ->
        let i = claim t Sent_hinted ~e:1 ~s:1 round src dst in
        Array.unsafe_set t.bits i bits;
        Array.unsafe_set t.hint i h

  (* A run of [kind] ([Sent_run], [Omitted_run] or [Delivered_run];
     [bits] and [hint] for [Sent_run] only) from its [k]th event on,
     keeping its newest [capacity]; a run of one is stored as its single
     event. *)
  let add_run t kind round src ~lo ~hi ~skip ~desc ~bits ~hint =
    let size = Run.size ~lo ~hi ~skip in
    let k = max 0 (size - capacity t) in
    let first = Run.nth ~lo ~hi ~skip ~desc k in
    if size - k = 1 then
      match kind with
      | Sent_run -> add_send t round src first bits hint
      | Omitted_run -> ignore (claim t Omitted ~e:1 ~s:1 round src first : int)
      | _ -> ignore (claim t Delivered ~e:1 ~s:1 round src first : int)
    else if size > 1 then begin
      let sent = kind = Sent_run in
      let kind = if sent && Option.is_some hint then Sent_hinted_run else kind in
      let i =
        claim t kind ~e:(size - k) ~s:(if sent then 2 else 1) round src first
      in
      Array.unsafe_set t.bits i (Run.nth ~lo ~hi ~skip ~desc (size - 1));
      Array.unsafe_set t.hint i skip;
      if sent then begin
        let j = if i + 1 = capacity t then 0 else i + 1 in
        Array.unsafe_set t.kinds j More;
        Array.unsafe_set t.bits j bits;
        Array.unsafe_set t.hint j (match hint with Some h -> h | None -> 0)
      end
    end

  let add t (e : Event.t) =
    match e with
    | Send { round; src; dst; bits; hint } -> add_send t round src dst bits hint
    | Omit { round; src; dst } -> ignore (claim t Omitted ~e:1 ~s:1 round src dst : int)
    | Deliver { round; src; dst } ->
        ignore (claim t Delivered ~e:1 ~s:1 round src dst : int)
    | _ -> t.boxed.(claim t Boxed ~e:1 ~s:1 0 0 0) <- e

  (* The single event at [i], or the event of the run at [i] towards
     [dst]. A run of [Send]s keeps its [bits] and [hint] in slot [i + 1]. *)
  let get t i dst : Event.t =
    let round = t.round.(i) and src = t.src.(i) in
    let j = (i + 1) mod capacity t in
    match t.kinds.(i) with
    | Sent -> Send { round; src; dst; bits = t.bits.(i); hint = None }
    | Sent_hinted ->
        Send { round; src; dst; bits = t.bits.(i); hint = Some t.hint.(i) }
    | Sent_run -> Send { round; src; dst; bits = t.bits.(j); hint = None }
    | Sent_hinted_run ->
        Send { round; src; dst; bits = t.bits.(j); hint = Some t.hint.(j) }
    | Omitted | Omitted_run -> Omit { round; src; dst }
    | Delivered | Delivered_run -> Deliver { round; src; dst }
    | Boxed | More -> t.boxed.(i)

  (* [f] over the retained events, newest first, each rebuilt just for
     its call: a fold that keeps less than every event (a tail's rounds,
     its JSON lines) leaves the rest to die young. A run goes last event
     first. *)
  let fold t ~init f =
    let cap = capacity t in
    let acc = ref init and k = ref t.used in
    while !k > 0 do
      let i = (t.head + !k - 1) mod cap in
      let i = if t.kinds.(i) = More then (i + cap - 1) mod cap else i in
      (match t.kinds.(i) with
      | Sent_run | Sent_hinted_run | Omitted_run | Delivered_run ->
          let a = t.dst.(i) and b = t.bits.(i) in
          Run.iter ~lo:(min a b) ~hi:(max a b) ~skip:t.hint.(i) ~desc:(a < b)
            (fun dst -> acc := f !acc (get t i dst))
      | Boxed | Sent | Sent_hinted | Omitted | Delivered | More ->
          acc := f !acc (get t i t.dst.(i)));
      k := (i + cap - t.head) mod cap
    done;
    !acc

  let to_list t = fold t ~init:[] (fun acc e -> e :: acc)

  let sink t =
    {
      Sink.emit = (fun e -> add t e);
      send =
        (fun ~round ~src ~dst ~bits ~hint ->
          add_send t round src dst bits hint);
      omit =
        (fun ~round ~src ~dst ->
          ignore (claim t Omitted ~e:1 ~s:1 round src dst : int));
      deliver =
        (fun ~round ~src ~dst ->
          ignore (claim t Delivered ~e:1 ~s:1 round src dst : int));
      sends =
        (fun ~round ~src ~lo ~hi ~skip ~desc ~bits ~hint ->
          add_run t Sent_run round src ~lo ~hi ~skip ~desc ~bits ~hint);
      fates =
        (fun ~round ~src ~lo ~hi ~skip ~desc ~omitted ->
          add_run t
            (if omitted then Omitted_run else Delivered_run)
            round src ~lo ~hi ~skip ~desc ~bits:0 ~hint:None);
      close = ignore;
      messages = true;
    }
end

(* ------------------------------------------------------------------ *)
(* Trace tails: the last K rounds of events.                           *)
(* ------------------------------------------------------------------ *)

module Tail = struct
  type t = { ring : Ring.t; rounds : int }

  let create ?(capacity = 8192) ~rounds () =
    if rounds <= 0 then invalid_arg "Trace.Tail.create: rounds must be > 0";
    { ring = Ring.create ~capacity; rounds }

  let sink t = Ring.sink t.ring

  (* The retained events of the last [rounds] rounds, each through [f],
     oldest first. *)
  let collect t f =
    let hi = Ring.fold t.ring ~init:0 (fun a e -> max a (Event.round e)) in
    let lo = hi - t.rounds + 1 in
    Ring.fold t.ring ~init:[] (fun acc e ->
        if Event.round e >= lo then f e :: acc else acc)

  let events t = collect t Fun.id
  let lines t = collect t Event.to_json
end

(* ------------------------------------------------------------------ *)
(* Derived per-round counters and run summary.                         *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type per_round = {
    round : int;
    messages : int;
    bits : int;
    omitted : int;
    corruptions : int;
    coin_calls : int;
    coin_bits : int;
    decisions : int;
    wall_s : float;
  }

  type summary = {
    rounds : int;
    messages : int;
    bits : int;
    omitted : int;
    corruptions : int;
    coin_calls : int;
    coin_bits : int;
    decisions : int;
    max_round_messages : int;
    max_round_bits : int;
    max_round_coin_bits : int;
    wall_total_s : float;
    per_round : per_round list;  (** chronological *)
  }

  let empty_summary =
    {
      rounds = 0;
      messages = 0;
      bits = 0;
      omitted = 0;
      corruptions = 0;
      coin_calls = 0;
      coin_bits = 0;
      decisions = 0;
      max_round_messages = 0;
      max_round_bits = 0;
      max_round_coin_bits = 0;
      wall_total_s = 0.;
      per_round = [];
    }

  let collector ?(clock = Unix.gettimeofday) () =
    let acc = ref [] in
    (* intra-round state, reset at Round_start *)
    let corruptions = ref 0 in
    let coin_calls = ref 0 in
    let coin_bits = ref 0 in
    let decisions = ref 0 in
    let started = ref (clock ()) in
    let emit (e : Event.t) =
      match e with
      | Event.Round_start _ ->
          corruptions := 0;
          coin_calls := 0;
          coin_bits := 0;
          decisions := 0;
          started := clock ()
      | Event.Corrupt _ -> incr corruptions
      | Event.Coin { calls; bits; _ } ->
          coin_calls := !coin_calls + calls;
          coin_bits := !coin_bits + bits
      | Event.Decide _ -> incr decisions
      | Event.Round_end { round; messages; bits; omitted; rand_calls = _; _ } ->
          (* Round_end carries this round's deltas, not cumulative totals *)
          acc :=
            {
              round;
              messages;
              bits;
              omitted;
              corruptions = !corruptions;
              coin_calls = !coin_calls;
              coin_bits = !coin_bits;
              decisions = !decisions;
              wall_s = clock () -. !started;
            }
            :: !acc;
      | Event.Send _ | Event.Omit _ | Event.Deliver _ | Event.Phase _
      | Event.Drop _ | Event.Dup _ | Event.Delay _ | Event.Retransmit _
      | Event.Ack _ | Event.Degrade _ | Event.Cache_hit _ -> ()
    in
    let summary () =
      let rounds = List.rev !acc in
      List.fold_left
        (fun s (r : per_round) ->
          {
            rounds = s.rounds + 1;
            messages = s.messages + r.messages;
            bits = s.bits + r.bits;
            omitted = s.omitted + r.omitted;
            corruptions = s.corruptions + r.corruptions;
            coin_calls = s.coin_calls + r.coin_calls;
            coin_bits = s.coin_bits + r.coin_bits;
            decisions = s.decisions + r.decisions;
            max_round_messages = max s.max_round_messages r.messages;
            max_round_bits = max s.max_round_bits r.bits;
            max_round_coin_bits = max s.max_round_coin_bits r.coin_bits;
            wall_total_s = s.wall_total_s +. r.wall_s;
            per_round = s.per_round;
          })
        { empty_summary with per_round = rounds }
        rounds
    in
    (Sink.rounds (Sink.make ~emit ~close:(fun () -> ())), summary)

  let of_events events =
    let sink, summary = collector ~clock:(fun () -> 0.) () in
    List.iter (Sink.emit sink) events;
    summary ()

  let pp_summary ppf s =
    Fmt.pf ppf
      "rounds=%d messages=%d bits=%d omitted=%d corruptions=%d coin_calls=%d \
       coin_bits=%d decisions=%d peak-round: msgs=%d bits=%d coin_bits=%d"
      s.rounds s.messages s.bits s.omitted s.corruptions s.coin_calls
      s.coin_bits s.decisions s.max_round_messages s.max_round_bits
      s.max_round_coin_bits
end

(* ------------------------------------------------------------------ *)
(* A run's observer sinks.                                             *)
(* ------------------------------------------------------------------ *)

module Observers = struct
  type t = {
    tail : Tail.t option;
    summary : (unit -> Metrics.summary) option;
    sink : Sink.t option;
  }

  let create ?(tail = 0) ?(metrics = false) ?clock ?file () =
    let tail = if tail > 0 then Some (Tail.create ~rounds:tail ()) else None in
    let collector =
      if metrics then Some (Metrics.collector ?clock ()) else None
    in
    let sinks =
      List.filter_map Fun.id
        [
          Option.map Tail.sink tail;
          Option.map fst collector;
          Option.map (fun path -> Sink.file ~path) file;
        ]
    in
    {
      tail;
      summary = Option.map snd collector;
      sink = (match sinks with [] -> None | l -> Some (Sink.tee_all l));
    }

  let sink t = t.sink
  let tail_lines t = match t.tail with Some tl -> Tail.lines tl | None -> []
  let summary t = Option.map (fun f -> f ()) t.summary
  let close t = Option.iter Sink.close t.sink
end

(* ------------------------------------------------------------------ *)
(* Trace files, as Sink.file writes them: read them back.              *)
(* ------------------------------------------------------------------ *)

module File = struct
  exception Corrupt of string

  let read path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun line -> String.trim line <> "")
    |> List.map (fun line ->
           match Event.of_json line with
           | Some e -> e
           | None ->
               raise
                 (Corrupt
                    (Printf.sprintf "%s: unparseable trace line: %s" path line)))
end

(* ------------------------------------------------------------------ *)
(* Structural diff: the first diverging event of two traces.           *)
(* ------------------------------------------------------------------ *)

module Diff = struct
  type divergence = {
    index : int;  (** 0-based position of the first differing event *)
    left : Event.t option;  (** [None]: the left trace ended here *)
    right : Event.t option;  (** [None]: the right trace ended here *)
  }

  type outcome = Identical of int | Diverged of divergence

  let events a b =
    let rec go i a b =
      match (a, b) with
      | [], [] -> Identical i
      | [], r :: _ -> Diverged { index = i; left = None; right = Some r }
      | l :: _, [] -> Diverged { index = i; left = Some l; right = None }
      | l :: a', r :: b' ->
          if Event.equal l r then go (i + 1) a' b'
          else Diverged { index = i; left = Some l; right = Some r }
    in
    go 0 a b

  let pp_side ppf = function
    | Some e -> Fmt.pf ppf "%s" (Event.to_json e)
    | None -> Fmt.pf ppf "<end of trace>"

  let pp_outcome ppf = function
    | Identical n -> Fmt.pf ppf "traces identical (%d events)" n
    | Diverged { index; left; right } ->
        let round =
          match (left, right) with
          | Some e, _ | _, Some e -> Event.round e
          | None, None -> 0
        in
        Fmt.pf ppf
          "first divergence at event #%d (round %d)@.  left : %a@.  right: %a"
          index round pp_side left pp_side right
end
