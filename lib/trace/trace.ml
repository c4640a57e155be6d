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

module Sink = struct
  (* [messages]: the sink consumes message-level events, so the engine
     reports them. [send]/[omit]/[deliver] take a message-level event's
     fields, so a sink that stores fields need not build the event. *)
  type t = {
    emit : Event.t -> unit;
    send :
      round:int -> src:int -> dst:int -> bits:int -> hint:int option -> unit;
    omit : round:int -> src:int -> dst:int -> unit;
    deliver : round:int -> src:int -> dst:int -> unit;
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
      close;
      messages = true;
    }

  let emit t e = t.emit e

  (* The entry points are the fields themselves, so applying one to the
     sink alone allocates nothing. *)
  let send t = t.send
  let omit t = t.omit
  let deliver t = t.deliver
  let close t = t.close ()
  let messages t = t.messages
  let no_verdict ~round:_ ~src:_ ~dst:_ = ()

  let null =
    {
      emit = ignore;
      send = (fun ~round:_ ~src:_ ~dst:_ ~bits:_ ~hint:_ -> ());
      omit = no_verdict;
      deliver = no_verdict;
      close = ignore;
      messages = false;
    }

  let rounds s =
    {
      null with
      emit = (fun e -> if not (Event.is_message e) then s.emit e);
      close = s.close;
    }

  let tee a b =
    {
      emit =
        (fun e ->
          a.emit e;
          b.emit e);
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
      close =
        (fun () ->
          a.close ();
          b.close ());
      messages = a.messages || b.messages;
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
  (* Slot [i]'s [kinds.(i)] says where its event lives. [Send], [Omit]
     and [Deliver] live in the int columns at [i] ([bits] and [hint] for
     [Send] only), the kind telling [Send]'s [hint = None] ([Sent]) from
     [Some] ([Sent_hinted]): a message-level add stores immediates only,
     so it allocates nothing and needs no write barrier. Every other event
     is kept as is in [boxed.(i)]. A boxed cell a message event has since
     overwritten keeps its old event alive until reused: at most
     [capacity] events. *)
  type kind = Boxed | Sent | Sent_hinted | Omitted | Delivered

  type t = {
    kinds : kind array;
    round : int array;
    src : int array;
    dst : int array;
    bits : int array;
    hint : int array;
    boxed : Event.t array;
    mutable next : int;
    mutable len : int;
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
      next = 0;
      len = 0;
    }

  let capacity t = Array.length t.kinds
  let length t = t.len

  (* Claims the next slot for an event of [kind]; returns its index. *)
  let[@inline] slot t kind =
    let cap = Array.length t.kinds in
    let i = t.next in
    t.next <- (if i + 1 = cap then 0 else i + 1);
    if t.len < cap then t.len <- t.len + 1;
    Array.unsafe_set t.kinds i kind;
    i

  (* Claims a slot and stores a message-level event's common fields. *)
  let[@inline] put t kind round src dst =
    let i = slot t kind in
    Array.unsafe_set t.round i round;
    Array.unsafe_set t.src i src;
    Array.unsafe_set t.dst i dst;
    i

  let add_send t round src dst bits hint =
    match hint with
    | None ->
        let i = put t Sent round src dst in
        Array.unsafe_set t.bits i bits
    | Some h ->
        let i = put t Sent_hinted round src dst in
        Array.unsafe_set t.bits i bits;
        Array.unsafe_set t.hint i h

  let add_omit t round src dst = ignore (put t Omitted round src dst : int)
  let add_deliver t round src dst = ignore (put t Delivered round src dst : int)

  let add t (e : Event.t) =
    match e with
    | Send { round; src; dst; bits; hint } -> add_send t round src dst bits hint
    | Omit { round; src; dst } -> add_omit t round src dst
    | Deliver { round; src; dst } -> add_deliver t round src dst
    | _ -> t.boxed.(slot t Boxed) <- e

  let get t i : Event.t =
    let round = t.round.(i) and src = t.src.(i) and dst = t.dst.(i) in
    match t.kinds.(i) with
    | Sent -> Send { round; src; dst; bits = t.bits.(i); hint = None }
    | Sent_hinted ->
        Send { round; src; dst; bits = t.bits.(i); hint = Some t.hint.(i) }
    | Omitted -> Omit { round; src; dst }
    | Delivered -> Deliver { round; src; dst }
    | Boxed -> t.boxed.(i)

  (* [f] over the retained events, newest first, each rebuilt just for
     its call: a fold that keeps less than every event (a tail's rounds,
     its JSON lines) leaves the rest to die young. *)
  let fold t ~init f =
    let cap = capacity t in
    let acc = ref init in
    for k = 1 to t.len do
      let i = t.next - k in
      acc := f !acc (get t (if i < 0 then i + cap else i))
    done;
    !acc

  let to_list t = fold t ~init:[] (fun acc e -> e :: acc)

  let sink t =
    {
      Sink.emit = (fun e -> add t e);
      send =
        (fun ~round ~src ~dst ~bits ~hint ->
          add_send t round src dst bits hint);
      omit = (fun ~round ~src ~dst -> add_omit t round src dst);
      deliver = (fun ~round ~src ~dst -> add_deliver t round src dst);
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
