(* Property tests for the engine's flat message buffer (Sim.Mailbox):
   insertion order through growth, reset-by-count reuse never leaking
   stale entries, the monomorphic stable sort agreeing with the old
   [List.sort] ordering the legacy engine used, and the protocols'
   mailbox-native filtered iteration agreeing with the legacy
   list-materializing [List.filter_map] path. *)

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xb0f |]) t

(* A mailbox load: list of (peer, msg) pushes. Peers from a small range so
   duplicates (the stability-sensitive case) are common. *)
let load =
  QCheck.(small_list (pair (int_range 0 7) small_int))

let fill mb pushes =
  List.iter (fun (peer, m) -> Sim.Mailbox.push mb ~peer m) pushes

let qcheck_order =
  QCheck.Test.make ~name:"push/iter/to_list preserve insertion order"
    ~count:300 load (fun pushes ->
      let mb = Sim.Mailbox.create () in
      fill mb pushes;
      let via_iter = ref [] in
      Sim.Mailbox.iter mb (fun peer m -> via_iter := (peer, m) :: !via_iter);
      Sim.Mailbox.length mb = List.length pushes
      && Sim.Mailbox.to_list mb = pushes
      && List.rev !via_iter = pushes)

let qcheck_growth =
  QCheck.Test.make ~name:"order survives growth past any capacity" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 100 400))
    (fun (hint, len) ->
      (* Force many doubling steps from a tiny hinted capacity. *)
      let mb = Sim.Mailbox.create ~hint () in
      let pushes = List.init len (fun i -> (i mod 9, i * 3)) in
      fill mb pushes;
      Sim.Mailbox.to_list mb = pushes)

let qcheck_reuse =
  QCheck.Test.make
    ~name:"clear-then-refill never exposes stale entries" ~count:300
    QCheck.(pair load load)
    (fun (first, second) ->
      let mb = Sim.Mailbox.create () in
      fill mb first;
      Sim.Mailbox.clear mb;
      (* A cleared buffer reads as empty even though slots keep old data. *)
      Sim.Mailbox.length mb = 0
      && Sim.Mailbox.to_list mb = []
      &&
      (fill mb second;
       Sim.Mailbox.to_list mb = second
       && Sim.Mailbox.fold mb ~init:0 (fun acc _ _ -> acc + 1)
          = List.length second))

let qcheck_sorted_flag =
  QCheck.Test.make ~name:"is_sorted_by_peer agrees with the list order"
    ~count:300 load (fun pushes ->
      let mb = Sim.Mailbox.create () in
      fill mb pushes;
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      let before =
        Sim.Mailbox.is_sorted_by_peer mb
        = non_decreasing (List.map fst pushes)
      in
      let sorted = Sim.Mailbox.create () in
      fill sorted (List.stable_sort (fun (a, _) (b, _) -> compare a b) pushes);
      before && Sim.Mailbox.is_sorted_by_peer sorted)

(* The buffered protocols filter their whole-inbox iterator during
   iteration (pk_iter / sub_iter-style views) instead of materializing a
   filtered (src, msg) list. Check the two against each other on
   arbitrary mailboxes with duplicate peers. *)
type tagged = A of int | B of int

let tagged_load =
  QCheck.(small_list (pair (int_range 0 7) (pair bool small_int)))

let fill_tagged mb pushes =
  List.iter
    (fun (peer, (is_a, v)) ->
      Sim.Mailbox.push mb ~peer (if is_a then A v else B v))
    pushes

let filter_iter mb f =
  Sim.Mailbox.iter mb (fun src m -> match m with A v -> f src v | B _ -> ())

let filtered_list mb =
  List.filter_map
    (fun (src, m) -> match m with A v -> Some (src, v) | B _ -> None)
    (Sim.Mailbox.to_list mb)

let collect_filtered mb =
  let acc = ref [] in
  filter_iter mb (fun src v -> acc := (src, v) :: !acc);
  List.rev !acc

let qcheck_filter_equiv =
  QCheck.Test.make
    ~name:"filtered iteration = List.filter_map over to_list" ~count:300
    tagged_load (fun pushes ->
      let mb = Sim.Mailbox.create () in
      fill_tagged mb pushes;
      collect_filtered mb = filtered_list mb)

let qcheck_filter_reuse =
  QCheck.Test.make
    ~name:"filtered view survives growth and clear-then-refill" ~count:100
    QCheck.(pair (int_range 100 300) tagged_load)
    (fun (len, second) ->
      (* grow well past the hinted capacity with duplicate peers *)
      let mb = Sim.Mailbox.create ~hint:1 () in
      for i = 0 to len - 1 do
        Sim.Mailbox.push mb ~peer:(i mod 5) (if i mod 3 = 0 then A i else B i)
      done;
      let first_ok = collect_filtered mb = filtered_list mb in
      Sim.Mailbox.clear mb;
      fill_tagged mb second;
      first_ok && collect_filtered mb = filtered_list mb)

(* --- broadcast segments --- *)

(* A mixed load: pointwise pushes interleaved with broadcast ranges over a
   small pid space, descending and ascending, with and without a skipped
   destination (including skips outside the range and empty ranges). *)
let op =
  QCheck.(
    map
      (fun (point, (lo, span), (skip, desc), m) ->
        if point then `P (lo, m)
        else `B (lo, min 7 (lo + span), (if skip > 7 then -1 else skip), desc, m))
      (quad bool
         (pair (int_range 0 7) (int_range 0 7))
         (pair (int_range 0 9) bool)
         small_int))

let mixed_load = QCheck.small_list op

let apply_ops mb ops =
  List.iter
    (function
      | `P (peer, m) -> Sim.Mailbox.push mb ~peer m
      | `B (lo, hi, skip, desc, m) ->
          Sim.Mailbox.push_all mb ~lo ~hi ~skip ~desc m)
    ops

(* The reference semantics: every broadcast expanded pointwise at its
   emission position, in its declared direction. *)
let expand_ops ops =
  List.concat_map
    (function
      | `P (peer, m) -> [ (peer, m) ]
      | `B (lo, hi, skip, desc, m) ->
          let dsts = ref [] in
          if desc then
            for d = lo to hi do
              if d <> skip then dsts := d :: !dsts
            done
          else
            for d = hi downto lo do
              if d <> skip then dsts := d :: !dsts
            done;
          List.map (fun d -> (d, m)) !dsts)
    ops

let qcheck_broadcast_equiv =
  QCheck.Test.make
    ~name:"push_all = pointwise pushes under iter/riter/to_list/length"
    ~count:500 mixed_load (fun ops ->
      let mb = Sim.Mailbox.create () in
      apply_ops mb ops;
      let expected = expand_ops ops in
      let via_riter = ref [] in
      Sim.Mailbox.riter mb (fun peer m -> via_riter := (peer, m) :: !via_riter);
      Sim.Mailbox.length mb = List.length expected
      && Sim.Mailbox.to_list mb = expected
      && !via_riter = expected
      && Sim.Mailbox.fold mb ~init:[] (fun acc p m -> (p, m) :: acc)
         = List.rev expected)

let qcheck_broadcast_reuse =
  QCheck.Test.make
    ~name:"broadcast clear-then-refill never exposes stale segments"
    ~count:300
    QCheck.(pair mixed_load mixed_load)
    (fun (first, second) ->
      let mb = Sim.Mailbox.create () in
      apply_ops mb first;
      Sim.Mailbox.clear mb;
      Sim.Mailbox.length mb = 0
      && Sim.Mailbox.seg_count mb = 0
      && Sim.Mailbox.to_list mb = []
      &&
      (apply_ops mb second;
       Sim.Mailbox.to_list mb = expand_ops second))

let test_broadcast_identity () =
  (* one push_all stores ONE shared record: every expanded slot must be
     physically identical ([==]) to the pushed message, across segment
     growth *)
  let mb = Sim.Mailbox.create () in
  let records = Array.init 12 (fun i -> ref i) in
  Array.iter (fun r -> Sim.Mailbox.push_all mb ~lo:0 ~hi:30 ~skip:7 r) records;
  let ok = ref true in
  let seen = Array.make 12 0 in
  Sim.Mailbox.iter mb (fun _peer m ->
      if not (m == records.(!m)) then ok := false;
      seen.(!m) <- seen.(!m) + 1);
  Alcotest.(check bool) "shared identity through growth" true !ok;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "fanout %d" i) 30 c)
    seen

(* [riter] does not merge an attached broadcast table, so it refuses an
   inbox whose table holds entries rather than silently skip them. *)
let test_riter_refuses_table () =
  let ib = Sim.Mailbox.create () in
  Sim.Mailbox.push ib ~peer:0 "row";
  let sh = Sim.Mailbox.shared_create ~n:8 in
  Sim.Mailbox.attach_shared ib sh ~owner:1;
  let rows = ref [] in
  Sim.Mailbox.riter ib (fun p m -> rows := (p, m) :: !rows);
  Alcotest.(check (list (pair int string))) "empty table: plain rows"
    [ (0, "row") ] !rows;
  Sim.Mailbox.shared_push sh ~src:2 ~lo:0 ~hi:3 ~skip:(-1) ~mask:Bytes.empty
    "entry";
  Alcotest.check_raises "non-empty table"
    (Invalid_argument "Mailbox.riter: buffer has an attached broadcast table")
    (fun () -> Sim.Mailbox.riter ib (fun _ _ -> ()))

(* Masks for the mask route's verdict walk cover destinations 0..7;
   [None] is [Bytes.empty] (deliver to all). *)
let mask_gen = QCheck.(option (list_of_size (Gen.return 8) bool))

let bytes_of_flags l =
  Bytes.of_string
    (String.concat "" (List.map (fun b -> if b then "\001" else "\000") l))

(* Runs of pointwise pushes for the pricing check: [(k, v, shared)] pushes
   [k] slots holding [v], either as one shared record or as [k]
   structurally equal but physically distinct copies. *)
let runs_gen = QCheck.(small_list (triple (int_range 1 6) small_int bool))

type boxed = { v : int }

(* The mixed load and the runs over boxed records, every [`P] and [`B]
   record fresh. [total_bits] must equal the fold and call its pricing
   function once per segment and once per maximal run of physically
   equal consecutive pointwise slots: never once per destination of a
   shared record, and never once for two distinct records. *)
let priced_per_record ops runs =
  let mb = Sim.Mailbox.create () in
  apply_ops mb
    (List.map
       (function
         | `P (peer, m) -> `P (peer, { v = m })
         | `B (lo, hi, skip, desc, m) -> `B (lo, hi, skip, desc, { v = m }))
       ops);
  List.iter
    (fun (k, v, shared) ->
      let r = { v } in
      for i = 0 to k - 1 do
        Sim.Mailbox.push mb ~peer:(i mod 8)
          (if shared then r else { v })
      done)
    runs;
  (* every [`P] is its own record; a shared run is one record *)
  let records =
    List.length (List.filter (function `P _ -> true | `B _ -> false) ops)
    + List.fold_left
        (fun acc (k, _, shared) -> acc + if shared then 1 else k)
        0 runs
    + Sim.Mailbox.seg_count mb
  in
  let calls = ref 0 in
  let f r =
    incr calls;
    r.v mod 5
  in
  Sim.Mailbox.total_bits mb f
  = Sim.Mailbox.fold mb ~init:0 (fun acc _ r -> acc + max 1 (r.v mod 5))
  && !calls = records

(* The verdict walk and the bit total against their references through
   [to_list]/[fold]: the walk writes and reports every entry in emission
   order, stopping before the first omission towards a non-[faulty]
   destination when checked, and returns the omission count or, for that
   stop, [-1 - dst]. The mask's verdicts read the same asked of a
   predicate, once per entry in emission order. *)
let qcheck_walk_and_bits =
  QCheck.Test.make
    ~name:"verdicts walk and total_bits = list model, fold"
    ~count:500
    QCheck.(
      quad mixed_load mask_gen (list_of_size (Gen.return 8) bool) runs_gen)
    (fun (ops, flags, except, runs) ->
      let mb = Sim.Mailbox.create () in
      apply_ops mb ops;
      let mask =
        match flags with None -> Bytes.empty | Some l -> bytes_of_flags l
      in
      let passes dst = Bytes.length mask = 0 || Bytes.get mask dst = '\000' in
      let all = Sim.Mailbox.to_list mb in
      let f m = m mod 5 in
      let faulty = Array.of_list except in
      let walk ~checked ~traced ~asked =
        (* the sender, pid 9, is checked when it is not faulty *)
        let faulty = Array.append faulty [| false; not checked |] in
        let sink, events = Trace.Sink.memory () in
        let sink = if traced then Some sink else None in
        let out = Bytes.make (List.length all) '\255' in
        let asks = ref [] in
        let ask src dst =
          asks := (src, dst) :: !asks;
          not (passes dst)
        in
        let ask = if asked then Some ask else None in
        let mask = if asked then Bytes.empty else mask in
        let r =
          Sim.Mailbox.verdicts mb ~pool:None ~faulty ~round:3 ~ask ~link:None
            ~link_trace:None ~sink ~mask ~src:9 ~out
        in
        (r, events (), out, List.rev !asks)
      in
      let reported ~checked =
        let rec go = function
          | [] -> ([], -1)
          | (d, _) :: rest ->
              if passes d then
                let evs, stop = go rest in
                (Trace.Event.Deliver { round = 3; src = 9; dst = d } :: evs, stop)
              else if checked && not faulty.(d) then ([], d)
              else
                let evs, stop = go rest in
                (Trace.Event.Omit { round = 3; src = 9; dst = d } :: evs, stop)
        in
        go all
      in
      (* the bytes of the walked entries, the rest untouched *)
      let written evs =
        Bytes.init (List.length all) (fun i ->
            match List.nth_opt evs i with
            | Some (Trace.Event.Deliver _) -> '\000'
            | Some (Trace.Event.Omit _) -> '\001'
            | _ -> '\255')
      in
      let walk_ok ~checked ~traced ~asked =
        let evs, stop = reported ~checked in
        let r, got, out, asks = walk ~checked ~traced ~asked in
        let omits =
          List.length
            (List.filter (function Trace.Event.Omit _ -> true | _ -> false) evs)
        in
        let stopped = if stop >= 0 then 1 else 0 in
        r = (if stop >= 0 then -1 - stop else omits)
        && ((not traced) || got = evs)
        && Bytes.equal out (written evs)
        && ((not asked)
           || asks
              = List.filteri
                  (fun i _ -> i < List.length evs + stopped)
                  (List.map (fun (d, _) -> (9, d)) all))
      in
      List.for_all
        (fun asked ->
          walk_ok ~checked:true ~traced:true ~asked
          && walk_ok ~checked:false ~traced:true ~asked
          && walk_ok ~checked:true ~traced:false ~asked)
        [ false; true ]
      && Sim.Mailbox.total_bits mb f
         = Sim.Mailbox.fold mb ~init:0 (fun acc _ m -> acc + max 1 (f m))
      && priced_per_record ops runs)

(* The two delivery walks, one per expanded entry in emission order, from
   each of the engine's verdict sources: codes, where a predicate omits
   the '\001' entries and a link loses the '\002' ones (both drop,
   only omissions count), a per-sender mask, or [Bytes.empty] (deliver
   everything). A pure-segment sender goes through the round-shared
   table ({!Sim.Mailbox.rshare}, its masks written as it walks); any
   other sender goes row by row ({!Sim.Mailbox.deliver_rows}: its walk
   writes verdict bytes that a closure-free index walk pushes).
   Either way each walk must report, return and ask as the per-sender
   model says, and when every sender's plan is legal every inbox must
   read as the list model: senders ascending and each sender's
   survivors towards the inbox in reverse emission order. Two rounds
   run through the same table and inboxes, so the second reads masks
   from reused pool buffers with stale bytes. *)
type source = Codes of int list | Mask of bool list | Deliver_all

let source =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> Codes l) (list_size (return 64) (int_range 0 2));
        map (fun l -> Mask l) (list_size (return 8) bool);
        return Deliver_all;
      ])

let verdict_round_gen ops_gen =
  (* up to four senders, each with its outbox and verdict source *)
  QCheck.(
    list_of_size (Gen.int_range 1 4) (pair ops_gen (make source)))

let segment_ops =
  QCheck.map
    (List.map (function
      | `P (lo, m) -> `B (lo, 7, -1, false, m)
      | b -> b))
    mixed_load

(* The verdict code of each expanded entry; a long outbox repeats the
   64 codes. *)
let entry_codes ops source =
  List.mapi
    (fun i (dst, _) ->
      match source with
      | Codes codes -> List.nth codes (i mod 64)
      | Mask flags -> if List.nth flags dst then 1 else 0
      | Deliver_all -> 0)
    (expand_ops ops)

(* The predicate, link and per-sender mask that play [source]'s codes to
   a walk, and the number of codes it has asked for so far. *)
let verdict_source ops source =
  let asked = ref 0 in
  match source with
  | Codes _ ->
      let codes = Array.of_list (entry_codes ops source) in
      let last = ref 0 in
      let ask _ _ =
        last := codes.(!asked);
        incr asked;
        !last = 1
      in
      let link =
        {
          Sim.Link_intf.name = "codes";
          reset = (fun ~seed:_ -> ());
          begin_round = (fun ~round:_ -> ());
          transmit =
            (fun ~trace:_ ~round:_ ~src:_ ~dst:_ ->
              if !last = 2 then Sim.Link_intf.Lost
              else Sim.Link_intf.Delivered);
        }
      in
      (Some ask, Some link, Bytes.empty, asked)
  | Mask flags -> (None, None, bytes_of_flags flags, asked)
  | Deliver_all -> (None, None, Bytes.empty, asked)

let model senders =
  Array.init 8 (fun dst ->
      List.concat
        (List.mapi
           (fun src (ops, source) ->
             let codes = entry_codes ops source in
             List.rev
               (List.filteri
                  (fun i (d, _) -> d = dst && List.nth codes i = 0)
                  (expand_ops ops))
             |> List.map (fun (_, m) -> (src, m)))
           senders))

(* What the walk of sender [src] must do under [faulty]: the [Omit] and
   [Deliver] events it reports, in emission order, what it returns, and
   how many codes it asks for. A non-faulty sender's omission towards a
   non-faulty destination is illegal: the walk stops there, before
   reporting it, and returns [-1 - dst]. A link loss is never illegal
   and never reported. *)
let sender_model ~faulty ~src ops source =
  let codes = entry_codes ops source in
  let rec go i = function
    | [] -> ([], -1, i)
    | ((dst, _), c) :: rest ->
        if c = 1 && (not faulty.(src)) && not faulty.(dst) then ([], dst, i + 1)
        else
          let evs, stop, asked = go (i + 1) rest in
          let ev =
            match c with
            | 0 -> [ Trace.Event.Deliver { round = 1; src; dst } ]
            | 1 -> [ Trace.Event.Omit { round = 1; src; dst } ]
            | _ -> []
          in
          (ev @ evs, stop, asked)
  in
  let evs, stop, asked = go 0 (List.combine (expand_ops ops) codes) in
  let omitted = List.length (List.filter (( = ) 1) codes) in
  (evs, (if stop >= 0 then -1 - stop else omitted), asked)

(* A fault set over the 8 pids: every pid faulty, so that no omission is
   illegal, or most of them, so that non-faulty senders often omit
   towards non-faulty destinations. *)
let faulty_gen =
  QCheck.make
    ~print:(fun a ->
      String.concat "" (Array.to_list (Array.map (fun f -> if f then "F" else ".") a)))
    QCheck.Gen.(
      oneof
        [
          return (Array.make 8 true);
          array_size (return 8) (frequency [ (3, return true); (1, return false) ]);
        ])

(* Each round through one table and one set of inboxes, every sender
   through the table ([table]) or row by row: per sender, what its walk
   returned, the events it reported to a memory sink ([traced]) and the
   codes it asked for; then every inbox as a list, and whether every
   inbox's rows are sorted by sender. *)
let walk_rounds ~table ~faulty ~traced rounds =
  let sh = Sim.Mailbox.shared_create ~n:8 in
  let inboxes = Array.init 8 (fun _ -> Sim.Mailbox.create ()) in
  Array.iteri (fun dst ib -> Sim.Mailbox.attach_shared ib sh ~owner:dst) inboxes;
  let scratch = ref Bytes.empty in
  List.map
    (fun senders ->
      Sim.Mailbox.shared_clear sh;
      Array.iter Sim.Mailbox.clear inboxes;
      let walks =
        List.mapi
          (fun src (ops, source) ->
            let ob = Sim.Mailbox.create () in
            apply_ops ob ops;
            let ask, link, mask, asked = verdict_source ops source in
            let sink, events = Trace.Sink.memory () in
            let sink = if traced then Some sink else None in
            let r =
              if table then
                Sim.Mailbox.rshare ob sh ~faulty ~round:1 ~ask ~link
                  ~link_trace:None ~sink ~mask ~src
              else
                Sim.Mailbox.deliver_rows ob inboxes ~scratch ~faulty ~round:1
                  ~ask ~link ~link_trace:None ~sink ~mask ~src
            in
            (r, events (), !asked))
          senders
      in
      ( walks,
        Array.map Sim.Mailbox.to_list inboxes,
        Array.for_all Sim.Mailbox.is_sorted_by_peer inboxes ))
    rounds

let legal walks = List.for_all (fun (r, _, _) -> r >= 0) walks

let deliver_rounds ~table ~faulty ~traced rounds =
  List.for_all2
    (fun senders (walks, inboxes, sorted) ->
      List.for_all2
        (fun (src, (ops, source)) (r, evs, asked) ->
          let want_evs, want_r, want_asked =
            sender_model ~faulty ~src ops source
          in
          r = want_r
          && evs = (if traced then want_evs else [])
          && match source with Codes _ -> asked = want_asked | _ -> true)
        (List.mapi (fun src s -> (src, s)) senders)
        walks
      && sorted
      && ((not (legal walks)) || inboxes = model senders))
    rounds
    (walk_rounds ~table ~faulty ~traced rounds)

let qcheck_rshare =
  QCheck.Test.make ~name:"rshare: table inboxes = survivors model" ~count:500
    QCheck.(
      quad faulty_gen bool (verdict_round_gen segment_ops)
        (verdict_round_gen segment_ops))
    (fun (faulty, traced, r1, r2) ->
      deliver_rounds ~table:true ~faulty ~traced [ r1; r2 ])

let qcheck_rdeliver =
  QCheck.Test.make ~name:"rdeliver: pushed inboxes = survivors model"
    ~count:500
    QCheck.(
      quad faulty_gen bool (verdict_round_gen mixed_load)
        (verdict_round_gen mixed_load))
    (fun (faulty, traced, r1, r2) ->
      deliver_rounds ~table:false ~faulty ~traced [ r1; r2 ])

(* A pure-segment sender may go either way: through the table or row by
   row, its walk must return the same value, report the same events and
   ask as often, and when every plan is legal the inboxes must read the
   same. *)
let qcheck_routes_agree =
  QCheck.Test.make ~name:"rshare = deliver_rows on pure-segment senders"
    ~count:500
    QCheck.(
      quad faulty_gen bool (verdict_round_gen segment_ops)
        (verdict_round_gen segment_ops))
    (fun (faulty, traced, r1, r2) ->
      let rounds = [ r1; r2 ] in
      List.for_all2
        (fun (w1, i1, _) (w2, i2, _) ->
          w1 = w2 && ((not (legal w1)) || i1 = i2))
        (walk_rounds ~table:true ~faulty ~traced rounds)
        (walk_rounds ~table:false ~faulty ~traced rounds))

(* Reading the round-shared table against a list model, on an 8-pid
   table. A sender either pushes table entries or pointwise rows, never
   both (the engine's merge contract), and senders ascend. An entry is
   full-range or partial, with or without a skip (including skips
   outside its range, which skip nothing), masked or not; pointwise rows
   from other senders put inboxes on the merge path, and an inbox
   without rows takes the row-free loop. Every inbox must read as the
   model through [iter], [fold], [to_list] and [length]. Two rounds go
   through the same table and inboxes. *)
type entry = { e_lo : int; e_hi : int; e_skip : int; e_mask : bool list option }

let entry_gen =
  QCheck.Gen.(
    let range =
      oneof
        [
          return (0, 7);
          (int_range 0 7 >>= fun lo ->
           int_range lo 7 >|= fun hi -> (lo, hi));
        ]
    in
    range >>= fun (e_lo, e_hi) ->
    oneof [ return (-1); int_range (-3) 9 ] >>= fun e_skip ->
    option (list_size (return 8) bool) >|= fun e_mask ->
    { e_lo; e_hi; e_skip; e_mask })

(* A sender: table entries, or pointwise rows as destinations. *)
type sender = Entries of entry list | Rows of int list

let sender_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> Entries l) (list_size (int_range 0 4) entry_gen);
        map (fun l -> Rows l) (list_size (int_range 0 6) (int_range 0 7));
      ])

let table_round_gen =
  QCheck.make QCheck.Gen.(list_size (int_range 1 6) sender_gen)

let covers_model e me =
  me >= e.e_lo && me <= e.e_hi && me <> e.e_skip
  && match e.e_mask with None -> true | Some l -> not (List.nth l me)

let table_model senders me =
  List.concat
    (List.mapi
       (fun src -> function
         | Entries es ->
             List.concat
               (List.mapi
                  (fun k e -> if covers_model e me then [ (src, (src, k)) ] else [])
                  es)
         | Rows ds ->
             List.concat
               (List.mapi (fun k d -> if d = me then [ (src, (src, k)) ] else []) ds))
       senders)

(* Eight inboxes attached to one table, refilled with one round. *)
let table_inboxes () =
  let sh = Sim.Mailbox.shared_create ~n:8 in
  let inboxes = Array.init 8 (fun _ -> Sim.Mailbox.create ()) in
  Array.iteri (fun me ib -> Sim.Mailbox.attach_shared ib sh ~owner:me) inboxes;
  (sh, inboxes)

let fill_table_round sh inboxes senders =
  Sim.Mailbox.shared_clear sh;
  Array.iter Sim.Mailbox.clear inboxes;
  List.iteri
    (fun src -> function
      | Entries es ->
          List.iteri
            (fun k e ->
              let mask =
                match e.e_mask with
                | None -> Bytes.empty
                | Some l -> bytes_of_flags l
              in
              Sim.Mailbox.shared_push sh ~src ~lo:e.e_lo ~hi:e.e_hi
                ~skip:e.e_skip ~mask (src, k))
            es
      | Rows ds ->
          List.iteri
            (fun k d -> Sim.Mailbox.push inboxes.(d) ~peer:src (src, k))
            ds)
    senders

let qcheck_table_read =
  QCheck.Test.make ~name:"table read: iter/fold/to_list/length = list model"
    ~count:500 (QCheck.pair table_round_gen table_round_gen)
    (fun (r1, r2) ->
      let sh, inboxes = table_inboxes () in
      List.for_all
        (fun senders ->
          fill_table_round sh inboxes senders;
          Array.for_all Fun.id
            (Array.mapi
               (fun me ib ->
                 let want = table_model senders me in
                 let via_iter = ref [] in
                 Sim.Mailbox.iter ib (fun p m -> via_iter := (p, m) :: !via_iter);
                 List.rev !via_iter = want
                 && Sim.Mailbox.to_list ib = want
                 && Sim.Mailbox.fold ib ~init:[] (fun acc p m -> (p, m) :: acc)
                    = List.rev want
                 && Sim.Mailbox.length ib = List.length want)
               inboxes))
        [ r1; r2 ])

(* The stop contract on all three read paths, against the list model:
   segments (no table), table-only inboxes and table-plus-rows inboxes.
   An [f] that raises [Stop] at entry [k] must have seen exactly the
   model's first [k] entries; a [fold] stopped at entry [k] returns the
   accumulator of the first [k - 1]; another exception propagates. [k]
   ranges past the end, where nothing stops. *)
let stop_reads_agree mb want k =
  let len = List.length want in
  let first j = List.filteri (fun i _ -> i < j) want in
  let read_until exn =
    let seen = ref [] in
    match
      Sim.Mailbox.iter mb (fun p m ->
          seen := (p, m) :: !seen;
          if List.length !seen = k then raise_notrace exn)
    with
    | () -> Ok (List.rev !seen)
    | exception e -> Error (e, List.rev !seen)
  in
  let folded =
    Sim.Mailbox.fold mb ~init:[] (fun acc p m ->
        if List.length acc + 1 = k then raise_notrace Sim.Mailbox.Stop;
        (p, m) :: acc)
  in
  read_until Sim.Mailbox.Stop = Ok (first k)
  && List.rev folded = first (k - 1)
  && read_until Exit = if k <= len then Error (Exit, first k) else Ok want

let qcheck_stop_segments =
  QCheck.Test.make ~name:"Stop ends a segment read after entry k" ~count:500
    QCheck.(pair mixed_load (int_range 1 40))
    (fun (ops, k) ->
      let mb = Sim.Mailbox.create () in
      apply_ops mb ops;
      stop_reads_agree mb (expand_ops ops) k)

(* Inboxes without rows read the table alone; the others merge, and stop
   in the tail loop when rows come after the last covering entry. *)
let qcheck_stop_table =
  QCheck.Test.make ~name:"Stop ends a table or merged read after entry k"
    ~count:500
    QCheck.(pair table_round_gen (int_range 1 30))
    (fun (senders, k) ->
      let sh, inboxes = table_inboxes () in
      fill_table_round sh inboxes senders;
      Array.for_all Fun.id
        (Array.mapi
           (fun me ib -> stop_reads_agree ib (table_model senders me) k)
           inboxes))

let suite =
  [
    qcheck qcheck_order;
    qcheck qcheck_growth;
    qcheck qcheck_reuse;
    qcheck qcheck_sorted_flag;
    qcheck qcheck_filter_equiv;
    qcheck qcheck_filter_reuse;
    qcheck qcheck_broadcast_equiv;
    qcheck qcheck_broadcast_reuse;
    Alcotest.test_case "push_all keeps one shared record" `Quick
      test_broadcast_identity;
    Alcotest.test_case "riter refuses a non-empty attached table" `Quick
      test_riter_refuses_table;
    qcheck qcheck_walk_and_bits;
    qcheck qcheck_rshare;
    qcheck qcheck_rdeliver;
    qcheck qcheck_routes_agree;
    qcheck qcheck_table_read;
    qcheck qcheck_stop_segments;
    qcheck qcheck_stop_table;
  ]
