(** Grow-only message buffer — the flat struct-of-arrays replacement for
    the engine's per-process [(src, msg) list] mailboxes.

    A mailbox holds parallel [peers]/[msgs] arrays plus a length; {!clear}
    resets the length without touching the arrays, so a buffer reused
    across rounds allocates only until it reaches its high-water mark.
    Slots beyond [length] keep their old contents (and thus keep old
    messages alive) until overwritten — the retained memory is bounded by
    the largest round ever buffered, which is exactly the arena semantics
    the engine wants.

    On top of the pointwise slots, a mailbox can hold {e broadcast
    segments} ({!push_all}): one shared message record plus a destination
    range, standing for up to [hi - lo + 1] pointwise entries without
    materialising them. Segments remember the pointwise length at which
    they were pushed, so the logical emission order — the sequence of
    [(peer, msg)] pairs a pointwise-only writer would have produced — is
    fully reconstructible: {!iter}, {!fold} and {!to_list} expand segments
    in place, and {!flatten} rewrites the buffer into the equivalent
    pointwise-only form. Only outboxes carry segments; the engine always
    delivers into inboxes pointwise.

    The [peer] of a slot is the destination pid for outboxes and the
    source pid for inboxes. Readers must treat a mailbox as valid only for
    the duration of the call that received it: the engine clears and
    refills these buffers every round. *)

(** Round-shared broadcast table: the fast path's alternative to
    materialising one inbox row per (sender, destination) pair. Each entry
    is one surviving broadcast — source, shared message, destination range
    and an optional per-destination omission mask — appended once by the
    engine's delivery phase and read by {e every} receiver's inbox
    iteration, which filters the table down to the entries covering its
    own pid. Delivery work per broadcast drops from O(destinations)
    scattered writes to O(1), and all receivers scan the same compact,
    cache-resident arrays. *)
type 'm shared = {
  mutable s_src : int array;
  mutable s_msg : 'm array;
  mutable s_lo : int array;
  mutable s_hi : int array;
  mutable s_skip : int array;
  mutable s_mask : Bytes.t array;
      (** [Bytes.empty] = deliver to the whole range; otherwise a
          non-['\000'] byte at [dst] suppresses that destination *)
  mutable s_len : int;
}

type 'm t = {
  mutable peers : int array;
  mutable msgs : 'm array;
  mutable len : int;
  hint : int;  (** first-growth capacity for the pointwise arrays *)
  (* Inbound broadcast view: engine-attached round-shared table plus the
     receiving pid. [None] for outboxes and standalone buffers. *)
  mutable shared : 'm shared option;
  mutable owner : int;
  (* Broadcast segments, parallel arrays indexed 0 .. seg_len - 1. *)
  mutable seg_msg : 'm array;  (** the shared message record *)
  mutable seg_lo : int array;  (** destination range, inclusive *)
  mutable seg_hi : int array;
  mutable seg_skip : int array;  (** destination to skip, or -1 *)
  mutable seg_desc : bool array;  (** emission walks hi -> lo *)
  mutable seg_pos : int array;
      (** pointwise [len] at push time — the segment sits between pointwise
          slots [pos - 1] and [pos] in emission order *)
  mutable seg_len : int;
  mutable seg_total : int;  (** expanded size of all segments *)
  (* Scratch for {!flatten}, grow-only like the main arrays. *)
  mutable fl_peers : int array;
  mutable fl_msgs : 'm array;
}

let shared_create () =
  {
    s_src = [||];
    s_msg = [||];
    s_lo = [||];
    s_hi = [||];
    s_skip = [||];
    s_mask = [||];
    s_len = 0;
  }

let shared_clear sh = sh.s_len <- 0

let shared_grow sh m =
  let cap = Array.length sh.s_lo in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let copy_int a = Array.append a (Array.make (cap' - cap) 0) in
  let msg' = Array.make cap' m in
  Array.blit sh.s_msg 0 msg' 0 sh.s_len;
  sh.s_msg <- msg';
  sh.s_src <- copy_int sh.s_src;
  sh.s_lo <- copy_int sh.s_lo;
  sh.s_hi <- copy_int sh.s_hi;
  sh.s_skip <- copy_int sh.s_skip;
  sh.s_mask <- Array.append sh.s_mask (Array.make (cap' - cap) Bytes.empty)

(** Append one surviving broadcast. Entries must arrive in the inbox
    order the pointwise engine would have produced: ascending [src], and
    within one sender the reverse of its emission order. *)
let shared_push sh ~src ~lo ~hi ~skip ~mask m =
  if sh.s_len = Array.length sh.s_lo then shared_grow sh m;
  let i = sh.s_len in
  sh.s_src.(i) <- src;
  sh.s_msg.(i) <- m;
  sh.s_lo.(i) <- lo;
  sh.s_hi.(i) <- hi;
  sh.s_skip.(i) <- skip;
  sh.s_mask.(i) <- mask;
  sh.s_len <- i + 1

(** Attach [sh] as the inbound broadcast view of inbox [t], owned by pid
    [owner]. Iteration then merges the pointwise rows with the table
    entries covering [owner]. *)
let attach_shared t sh ~owner =
  t.shared <- Some sh;
  t.owner <- owner

(* Does table entry [j] deliver to receiver [me]? *)
let[@inline] shared_covers sh j me =
  me >= Array.unsafe_get sh.s_lo j
  && me <= Array.unsafe_get sh.s_hi j
  && me <> Array.unsafe_get sh.s_skip j
  &&
  let mask = Array.unsafe_get sh.s_mask j in
  Bytes.length mask = 0 || Bytes.unsafe_get mask me = '\000'

let create ?(hint = 0) () =
  {
    peers = [||];
    msgs = [||];
    len = 0;
    hint;
    shared = None;
    owner = -1;
    seg_msg = [||];
    seg_lo = [||];
    seg_hi = [||];
    seg_skip = [||];
    seg_desc = [||];
    seg_pos = [||];
    seg_len = 0;
    seg_total = 0;
    fl_peers = [||];
    fl_msgs = [||];
  }

(** Expanded entry count: pointwise slots plus every segment destination,
    plus — on an inbox with an attached broadcast table — the table
    entries covering this receiver. *)
let length t =
  let base = t.len + t.seg_total in
  match t.shared with
  | Some sh when sh.s_len > 0 ->
      let c = ref 0 in
      for j = 0 to sh.s_len - 1 do
        if shared_covers sh j t.owner then incr c
      done;
      base + !c
  | _ -> base

(** Pointwise slots only (segments excluded). *)
let point_length t = t.len

let seg_count t = t.seg_len

let clear t =
  t.len <- 0;
  t.seg_len <- 0;
  t.seg_total <- 0

let peer t i =
  if i < 0 || i >= t.len then invalid_arg "Mailbox.peer: index out of bounds";
  t.peers.(i)

let msg t i =
  if i < 0 || i >= t.len then invalid_arg "Mailbox.msg: index out of bounds";
  t.msgs.(i)

(* The msgs array needs a seed element to exist; it is created lazily from
   the first message pushed, so the type stays fully polymorphic without an
   [Obj.magic] or a per-protocol dummy. *)
let grow t m =
  let cap = Array.length t.peers in
  let cap' = if cap = 0 then max t.hint 16 else 2 * cap in
  let peers' = Array.make cap' 0 in
  let msgs' = Array.make cap' m in
  Array.blit t.peers 0 peers' 0 t.len;
  Array.blit t.msgs 0 msgs' 0 t.len;
  t.peers <- peers';
  t.msgs <- msgs'

let push t ~peer m =
  if t.len = Array.length t.peers then grow t m;
  t.peers.(t.len) <- peer;
  t.msgs.(t.len) <- m;
  t.len <- t.len + 1

(** Expanded size of a segment over [lo..hi] skipping [skip]. *)
let seg_size ~lo ~hi ~skip =
  if hi < lo then 0
  else (hi - lo + 1) - (if skip >= lo && skip <= hi then 1 else 0)

let seg_grow t m =
  let cap = Array.length t.seg_lo in
  let cap' = if cap = 0 then 4 else 2 * cap in
  let copy_int a = Array.append a (Array.make (cap' - cap) 0) in
  let msg' = Array.make cap' m in
  Array.blit t.seg_msg 0 msg' 0 t.seg_len;
  t.seg_msg <- msg';
  t.seg_lo <- copy_int t.seg_lo;
  t.seg_hi <- copy_int t.seg_hi;
  t.seg_skip <- copy_int t.seg_skip;
  t.seg_desc <- Array.append t.seg_desc (Array.make (cap' - cap) false);
  t.seg_pos <- copy_int t.seg_pos

(** [push_all t ~lo ~hi ?skip ?desc m]: broadcast [m] to every destination
    in [lo..hi] except [skip] — one shared record instead of up to
    [hi - lo + 1] pointwise rows. [desc] records the emission direction
    ([hi] down to [lo]) so expansion reproduces the exact pointwise order.
    An empty range is dropped. *)
let push_all t ~lo ~hi ?(skip = -1) ?(desc = false) m =
  let size = seg_size ~lo ~hi ~skip in
  if size > 0 then begin
    if t.seg_len = Array.length t.seg_lo then seg_grow t m;
    let i = t.seg_len in
    t.seg_msg.(i) <- m;
    t.seg_lo.(i) <- lo;
    t.seg_hi.(i) <- hi;
    t.seg_skip.(i) <- skip;
    t.seg_desc.(i) <- desc;
    t.seg_pos.(i) <- t.len;
    t.seg_len <- i + 1;
    t.seg_total <- t.seg_total + size
  end

(* Expand one segment's destinations in emission order. *)
let seg_iter_dsts ~lo ~hi ~skip ~desc f =
  if desc then
    for dst = hi downto lo do
      if dst <> skip then f dst
    done
  else
    for dst = lo to hi do
      if dst <> skip then f dst
    done

(* Same in reverse emission order. *)
let seg_riter_dsts ~lo ~hi ~skip ~desc f =
  if desc then
    for dst = lo to hi do
      if dst <> skip then f dst
    done
  else
    for dst = hi downto lo do
      if dst <> skip then f dst
    done

(** Walk the buffer's entries in emission order without expanding
    segments: [point peer m] per pointwise slot, [seg ~lo ~hi ~skip ~desc
    ~size m] per broadcast segment. *)
let iter_entries t ~point ~seg =
  if t.seg_len = 0 then
    for i = 0 to t.len - 1 do
      point t.peers.(i) t.msgs.(i)
    done
  else begin
    let s = ref 0 in
    let flush_upto pos =
      while !s < t.seg_len && t.seg_pos.(!s) <= pos do
        let i = !s in
        seg ~lo:t.seg_lo.(i) ~hi:t.seg_hi.(i) ~skip:t.seg_skip.(i)
          ~desc:t.seg_desc.(i)
          ~size:
            (seg_size ~lo:t.seg_lo.(i) ~hi:t.seg_hi.(i) ~skip:t.seg_skip.(i))
          t.seg_msg.(i);
        incr s
      done
    in
    for i = 0 to t.len - 1 do
      flush_upto i;
      point t.peers.(i) t.msgs.(i)
    done;
    flush_upto t.len
  end

(** {!iter_entries} in reverse emission order (segments still unexpanded,
    visited after the pointwise slot they precede). *)
let riter_entries t ~point ~seg =
  if t.seg_len = 0 then
    for i = t.len - 1 downto 0 do
      point t.peers.(i) t.msgs.(i)
    done
  else begin
    let s = ref (t.seg_len - 1) in
    let flush_downto pos =
      (* segments at position > pos come after slot [pos] in emission
         order, so in reverse order they are visited first *)
      while !s >= 0 && t.seg_pos.(!s) > pos do
        let i = !s in
        seg ~lo:t.seg_lo.(i) ~hi:t.seg_hi.(i) ~skip:t.seg_skip.(i)
          ~desc:t.seg_desc.(i)
          ~size:
            (seg_size ~lo:t.seg_lo.(i) ~hi:t.seg_hi.(i) ~skip:t.seg_skip.(i))
          t.seg_msg.(i);
        decr s
      done
    in
    for i = t.len - 1 downto 0 do
      flush_downto i;
      point t.peers.(i) t.msgs.(i)
    done;
    flush_downto (-1)
  end

(* Inbox walk when a round-shared broadcast table is attached and
   non-empty: merge the pointwise rows (sorted by ascending peer) with
   the table entries covering this receiver (sorted by ascending src).
   The engine keeps the two sender sets disjoint — a sender delivers a
   round either through the table or through pointwise rows, never both —
   so the merge needs no tie-break. *)
let iter_merged t sh f =
  assert (t.seg_len = 0);
  let me = t.owner in
  let i = ref 0 in
  for j = 0 to sh.s_len - 1 do
    if shared_covers sh j me then begin
      let src = Array.unsafe_get sh.s_src j in
      while !i < t.len && Array.unsafe_get t.peers !i < src do
        f (Array.unsafe_get t.peers !i) (Array.unsafe_get t.msgs !i);
        incr i
      done;
      f src (Array.unsafe_get sh.s_msg j)
    end
  done;
  while !i < t.len do
    f (Array.unsafe_get t.peers !i) (Array.unsafe_get t.msgs !i);
    incr i
  done

let riter_merged t sh f =
  assert (t.seg_len = 0);
  let me = t.owner in
  let i = ref (t.len - 1) in
  for j = sh.s_len - 1 downto 0 do
    if shared_covers sh j me then begin
      let src = Array.unsafe_get sh.s_src j in
      while !i >= 0 && Array.unsafe_get t.peers !i > src do
        f (Array.unsafe_get t.peers !i) (Array.unsafe_get t.msgs !i);
        decr i
      done;
      f src (Array.unsafe_get sh.s_msg j)
    end
  done;
  while !i >= 0 do
    f (Array.unsafe_get t.peers !i) (Array.unsafe_get t.msgs !i);
    decr i
  done

let iter t f =
  match t.shared with
  | Some sh when sh.s_len > 0 -> iter_merged t sh f
  | _ ->
      iter_entries t ~point:f ~seg:(fun ~lo ~hi ~skip ~desc ~size:_ m ->
          seg_iter_dsts ~lo ~hi ~skip ~desc (fun dst -> f dst m))

(** Expanded walk in reverse emission order — the engine's arena fill. *)
let riter t f =
  match t.shared with
  | Some sh when sh.s_len > 0 -> riter_merged t sh f
  | _ ->
      riter_entries t ~point:f ~seg:(fun ~lo ~hi ~skip ~desc ~size:_ m ->
          seg_riter_dsts ~lo ~hi ~skip ~desc (fun dst -> f dst m))

(* Append one delivered row without the public-push indirection: capacity
   check against the live arrays, unsafe stores. [dst] is trusted — the
   engine validates destination ranges at emit time. *)
let[@inline] deliver_row inboxes ~peer dst m =
  let ib = Array.unsafe_get inboxes dst in
  if ib.len = Array.length ib.peers then grow ib m;
  let len = ib.len in
  Array.unsafe_set ib.peers len peer;
  Array.unsafe_set ib.msgs len m;
  ib.len <- len + 1

(** Bulk delivery in reverse emission order: exactly
    [riter t (fun dst m -> push inboxes.(dst) ~peer m)] with the
    per-destination closure dispatch and bounds checks hoisted out of the
    segment inner loops — the engine's fast-path [Deliver_all] blit. *)
let rdeliver t inboxes ~peer =
  riter_entries t
    ~point:(fun dst m -> deliver_row inboxes ~peer dst m)
    ~seg:(fun ~lo ~hi ~skip ~desc ~size:_ m ->
      (* reverse emission order, as in {!seg_riter_dsts} *)
      if desc then
        for dst = lo to hi do
          if dst <> skip then deliver_row inboxes ~peer dst m
        done
      else
        for dst = hi downto lo do
          if dst <> skip then deliver_row inboxes ~peer dst m
        done)

(** {!rdeliver} restricted to survivors: rows whose [mask] byte at [dst]
    is ['\000'] — the fast-path [Omit_mask] push. [mask] must cover every
    destination in the buffer. *)
let rdeliver_masked t inboxes ~peer ~mask =
  riter_entries t
    ~point:(fun dst m ->
      if Bytes.unsafe_get mask dst = '\000' then
        deliver_row inboxes ~peer dst m)
    ~seg:(fun ~lo ~hi ~skip ~desc ~size:_ m ->
      if desc then
        for dst = lo to hi do
          if dst <> skip && Bytes.unsafe_get mask dst = '\000' then
            deliver_row inboxes ~peer dst m
        done
      else
        for dst = hi downto lo do
          if dst <> skip && Bytes.unsafe_get mask dst = '\000' then
            deliver_row inboxes ~peer dst m
        done)

(** Smallest destination-range width among the buffer's segments
    ([max_int] when it has none). The engine routes a sender through the
    round-shared table only when its broadcasts are wide: every receiver
    scans the whole table, so a narrow (e.g. one-group) segment would tax
    n receivers for a handful of deliveries. *)
let min_seg_span t =
  let m = ref max_int in
  for i = 0 to t.seg_len - 1 do
    m := min !m (t.seg_hi.(i) - t.seg_lo.(i) + 1)
  done;
  !m

let fold t ~init f =
  let acc = ref init in
  iter t (fun peer m -> acc := f !acc peer m);
  !acc

(** The buffer's contents as a [(peer, msg)] list, in emission order. *)
let to_list t =
  let acc = ref [] in
  iter t (fun peer m -> acc := (peer, m) :: !acc);
  List.rev !acc

(** Rewrite the buffer into the equivalent pointwise-only form: every
    segment expanded in place, emission order preserved. No-op without
    segments; with segments it runs on grow-only scratch arrays, so a
    buffer reused across rounds stops allocating at its high-water mark. *)
let flatten t =
  if t.seg_len > 0 then begin
    let total = length t in
    let seed = t.seg_msg.(0) in
    if Array.length t.fl_peers < total then begin
      let cap = max total (2 * Array.length t.fl_peers) in
      t.fl_peers <- Array.make cap 0;
      t.fl_msgs <- Array.make cap seed
    end;
    let fp = t.fl_peers and fm = t.fl_msgs in
    let j = ref 0 in
    iter t (fun peer m ->
        fp.(!j) <- peer;
        fm.(!j) <- m;
        incr j);
    (* swap: the old pointwise arrays become next flatten's scratch *)
    let op = t.peers and om = t.msgs in
    t.peers <- fp;
    t.msgs <- fm;
    t.fl_peers <- op;
    t.fl_msgs <- om;
    t.len <- total;
    t.seg_len <- 0;
    t.seg_total <- 0
  end

(** [true] iff slots are in non-decreasing [peer] order — the engine's
    post-delivery debug assertion: the backward survivor push fills every
    inbox pre-sorted, so sortedness is a contract to check, not work to
    redo. Pointwise slots only (inboxes never hold segments). *)
let is_sorted_by_peer t =
  let ok = ref true in
  for i = 1 to t.len - 1 do
    if t.peers.(i - 1) > t.peers.(i) then ok := false
  done;
  !ok

(** Stable in-place insertion sort by ascending [peer] — the monomorphic
    replacement for the engine's old [List.sort (fun (a,_) (b,_) ->
    compare a b)]: same ascending-peer order, equal peers keep their
    relative slot order (duplicates preserved). Runs in O(len) when the
    buffer is already sorted, which is the engine's steady state.
    Pointwise slots only. *)
let sort_by_peer t =
  for i = 1 to t.len - 1 do
    let p = t.peers.(i) in
    if t.peers.(i - 1) > p then begin
      let m = t.msgs.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && t.peers.(!j) > p do
        t.peers.(!j + 1) <- t.peers.(!j);
        t.msgs.(!j + 1) <- t.msgs.(!j);
        decr j
      done;
      t.peers.(!j + 1) <- p;
      t.msgs.(!j + 1) <- m
    end
  done
