(** Grow-only message buffer — the flat struct-of-arrays replacement for
    the engine's per-process [(src, msg) list] mailboxes.

    A mailbox holds parallel [peers]/[msgs] arrays plus a length; {!clear}
    resets the length without touching the arrays, so a buffer reused
    across rounds allocates only until it reaches its high-water mark.
    Slots beyond [length] keep their old contents (and thus keep old
    messages alive) until overwritten — the retained memory is bounded by
    the largest round ever buffered, which is exactly the reuse the
    engine wants.

    On top of the pointwise slots, a mailbox can hold {e broadcast
    segments} ({!push_all}): one shared message record plus a destination
    range, standing for up to [hi - lo + 1] pointwise entries without
    materialising them. Segments remember the pointwise length at which
    they were pushed, so the logical emission order — the sequence of
    [(peer, msg)] pairs a pointwise-only writer would have produced — is
    fully reconstructible: {!iter}, {!riter}, {!fold} and {!to_list}
    expand segments in place. Only outboxes carry segments. Inboxes hold
    pointwise rows, plus, when the engine has attached its round-shared
    broadcast table ({!attach_shared}), the table entries covering their
    owner, merged in at read time.

    The [peer] of a slot is the destination pid for outboxes and the
    source pid for inboxes. Readers must treat a mailbox as valid only for
    the duration of the call that received it: the engine clears and
    refills these buffers every round. *)

(** Round-shared broadcast table: the engine's alternative to
    materialising one inbox row per (sender, destination) pair. Each entry
    is one surviving broadcast — source, shared message, destination range
    and an optional per-destination omission mask — appended once by the
    engine's delivery phase and read by {e every} receiver's inbox
    iteration, which filters the table down to the entries covering its
    own pid. {!rshare} fills it for every plan, its verdict walk writing
    each segment's drops straight into a destination-indexed mask from a
    pool the table owns and reuses across rounds. Delivery work per
    broadcast drops from O(destinations) scattered writes to O(1), and
    all receivers scan the same compact, cache-resident arrays.

    Each entry carries a coverage key, computed once by {!shared_push}
    from the table's width [n]. An unmasked entry over every pid stores
    its skipped destination ([-1] for none), so a receiver [me] tests
    only [me <> key]. Any other entry stores [-3 - skip] (at most [-2])
    and is tested on its range, skip and mask. A receiver's read binds
    the table's arrays once: the table does not change while inboxes
    are read. *)
type 'm shared = {
  s_n : int;  (** pids [0 .. n - 1]: the width a full entry covers *)
  mutable s_src : int array;
  mutable s_msg : 'm array;
  mutable s_lo : int array;
  mutable s_hi : int array;
  mutable s_key : int array;
      (** [skip] for an unmasked full-width entry, else [-3 - skip] *)
  mutable s_mask : Bytes.t array;
      (** [Bytes.empty] = deliver to the whole range; otherwise a
          non-['\000'] byte at [dst] suppresses that destination *)
  mutable s_len : int;
  mutable s_pool : Bytes.t array;
      (** mask buffers {!rshare} fills, reused across rounds *)
  mutable s_pooled : int;  (** pool buffers in use since {!shared_clear} *)
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
}

(** An empty table for receivers [0 .. n - 1]. *)
let shared_create ~n =
  {
    s_n = n;
    s_src = [||];
    s_msg = [||];
    s_lo = [||];
    s_hi = [||];
    s_key = [||];
    s_mask = [||];
    s_len = 0;
    s_pool = [||];
    s_pooled = 0;
  }

let shared_clear sh =
  sh.s_len <- 0;
  sh.s_pooled <- 0

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
  sh.s_key <- copy_int sh.s_key;
  sh.s_mask <- Array.append sh.s_mask (Array.make (cap' - cap) Bytes.empty)

(** Append one surviving broadcast. Entries must arrive in the inbox
    order the pointwise engine would have produced: ascending [src], and
    within one sender the reverse of its emission order. A [skip] outside
    [lo..hi] skips nothing. *)
let shared_push sh ~src ~lo ~hi ~skip ~mask m =
  if sh.s_len = Array.length sh.s_lo then shared_grow sh m;
  let i = sh.s_len in
  let skip = if skip >= lo && skip <= hi then skip else -1 in
  sh.s_src.(i) <- src;
  sh.s_msg.(i) <- m;
  sh.s_lo.(i) <- lo;
  sh.s_hi.(i) <- hi;
  sh.s_key.(i) <-
    (if lo <= 0 && hi >= sh.s_n - 1 && Bytes.length mask = 0 then skip
     else -3 - skip);
  sh.s_mask.(i) <- mask;
  sh.s_len <- i + 1

(** Attach [sh] as the inbound broadcast view of inbox [t], owned by pid
    [owner]. Iteration then merges the pointwise rows with the table
    entries covering [owner]. *)
let attach_shared t sh ~owner =
  t.shared <- Some sh;
  t.owner <- owner

(* The full test for an entry whose key [k] is at most [-2]: range, skip
   and mask. *)
let partial_covers sh j me k =
  me >= Array.unsafe_get sh.s_lo j
  && me <= Array.unsafe_get sh.s_hi j
  && me <> -3 - k
  &&
  let mask = Array.unsafe_get sh.s_mask j in
  Bytes.length mask = 0 || Bytes.unsafe_get mask me = '\000'

(* Does table entry [j], of coverage key [k], deliver to receiver [me]? *)
let[@inline] covers sh j me k = k <> me && (k >= -1 || partial_covers sh j me k)

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
  }

(** Expanded entry count: pointwise slots plus every segment destination,
    plus — on an inbox with an attached broadcast table — the table
    entries covering this receiver. *)
let length t =
  let base = t.len + t.seg_total in
  match t.shared with
  | Some sh when sh.s_len > 0 ->
      let key = sh.s_key and me = t.owner and c = ref 0 in
      for j = 0 to sh.s_len - 1 do
        if covers sh j me (Array.unsafe_get key j) then incr c
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

(** Raised by a reader's [f] to end {!iter} or {!fold} after the
    current entry: the read stops there and returns normally, [fold]
    with the accumulator of the last entry whose [f] returned. Raise it
    with [raise_notrace]: a protocol that has learned all an inbox can
    tell it skips the rest. Any other exception propagates. The engine's
    own walks never stop early: neither {!riter} nor the verdict walks
    ({!verdicts}, {!rshare}) catch it, and the engine refuses it when a
    predicate, link or sink raises it in a verdict walk. *)
exception Stop

(* The inbox walk when a round-shared broadcast table is attached and
   non-empty: it merges the pointwise rows (sorted by ascending peer)
   with the table entries covering this receiver (sorted by ascending
   src), binding the arrays it reads once: [f] is opaque, but neither
   the table nor the inbox changes while a receiver reads it. Without
   rows (every inbox on a table-only round, such as flood's masked
   rounds) the tail loop finds nothing to merge. The engine keeps the
   two sender sets disjoint — a sender delivers a round either through
   the table or through pointwise rows, never both — so the merge needs
   no tie-break. *)
let iter_merged t sh f =
  let me = t.owner and key = sh.s_key and src = sh.s_src and msg = sh.s_msg in
  let peers = t.peers and msgs = t.msgs and len = t.len in
  let i = ref 0 in
  for j = 0 to sh.s_len - 1 do
    if covers sh j me (Array.unsafe_get key j) then begin
      let s = Array.unsafe_get src j in
      while !i < len && Array.unsafe_get peers !i < s do
        f (Array.unsafe_get peers !i) (Array.unsafe_get msgs !i);
        incr i
      done;
      f s (Array.unsafe_get msg j)
    end
  done;
  while !i < len do
    f (Array.unsafe_get peers !i) (Array.unsafe_get msgs !i);
    incr i
  done

(* The walk of a buffer without a non-empty attached table: a plain loop
   over the arrays, like {!rdeliver}, allocating nothing per sender or
   per segment. Segment [j] sits just before pointwise slot
   [seg_pos.(j)] in emission order. *)
let iter_segments t f =
  let s = ref 0 in
  for i = 0 to t.len do
    while !s < t.seg_len && t.seg_pos.(!s) <= i do
      let j = !s in
      let lo = t.seg_lo.(j) and hi = t.seg_hi.(j) in
      let skip = t.seg_skip.(j) and m = t.seg_msg.(j) in
      if t.seg_desc.(j) then
        for dst = hi downto lo do
          if dst <> skip then f dst m
        done
      else
        for dst = lo to hi do
          if dst <> skip then f dst m
        done;
      incr s
    done;
    if i < t.len then f (Array.unsafe_get t.peers i) (Array.unsafe_get t.msgs i)
  done

(** Expanded walk in emission order, the attached table's entries merged
    in. [f] may end it early with {!Stop}. *)
let iter t f =
  try
    match t.shared with
    | Some sh when sh.s_len > 0 ->
        assert (t.seg_len = 0);
        iter_merged t sh f
    | _ -> iter_segments t f
  with Stop -> ()

(** Expanded walk in reverse emission order — the engine's
    pending-message walk. Raises [Invalid_argument]
    on an inbox whose attached broadcast table is non-empty: the walk
    does not merge table entries, so it would silently miss them. *)
let riter t f =
  (match t.shared with
  | Some sh when sh.s_len > 0 ->
      invalid_arg "Mailbox.riter: buffer has an attached broadcast table"
  | _ -> ());
  let s = ref (t.seg_len - 1) in
  for i = t.len - 1 downto -1 do
    (* segments pushed after slot [i] come after it in emission order,
       so in reverse order they are visited first *)
    while !s >= 0 && t.seg_pos.(!s) > i do
      let j = !s in
      let lo = t.seg_lo.(j) and hi = t.seg_hi.(j) in
      let skip = t.seg_skip.(j) and m = t.seg_msg.(j) in
      if t.seg_desc.(j) then
        for dst = lo to hi do
          if dst <> skip then f dst m
        done
      else
        for dst = hi downto lo do
          if dst <> skip then f dst m
        done;
      decr s
    done;
    if i >= 0 then f (Array.unsafe_get t.peers i) (Array.unsafe_get t.msgs i)
  done

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

(** [total_bits t f]: the expanded bit total
    [fold t ~init:0 (fun acc _ m -> acc + max 1 (f m))] of a buffer
    without an attached broadcast table, with one [f] call per segment and
    per run of consecutive pointwise slots holding the same ([==]) record:
    a protocol that sends one shared record to many destinations in a row
    is priced once, so [f] must be a pure function of the record. *)
let total_bits t f =
  let bits = ref 0 and i = ref 0 in
  while !i < t.len do
    let m = Array.unsafe_get t.msgs !i in
    let j = ref (!i + 1) in
    while !j < t.len && Array.unsafe_get t.msgs !j == m do
      incr j
    done;
    bits := !bits + ((!j - !i) * max 1 (f m));
    i := !j
  done;
  for j = 0 to t.seg_len - 1 do
    let size =
      seg_size ~lo:t.seg_lo.(j) ~hi:t.seg_hi.(j) ~skip:t.seg_skip.(j)
    in
    bits := !bits + (size * max 1 (f t.seg_msg.(j)))
  done;
  !bits

(* Does every message go through, with nothing to ask, transmit or
   report? Then a sender's walk is skipped: {!rshare} and {!deliver_rows}
   deliver it whole. *)
let[@inline] silent ~ask ~link ~sink ~mask =
  Bytes.length mask = 0
  && Option.is_none ask
  && Option.is_none link
  && Option.is_none sink

(* The fate of [src]'s message to [dst] in [round]: ['\000'] delivered
   (reported as a [Deliver]), ['\001'] omitted (reported as an [Omit]),
   ['\002'] lost by the link, or ['\003'] for an illegal omission, one
   from a [checked] (non-faulty) sender to a non-[faulty] [dst], which is
   not reported. See {!verdicts} for the other arguments. *)
let[@inline] fate ~faulty ~round ~ask ~link ~link_trace ~traced ~omit
    ~deliver ~mask ~checked ~src dst =
  if
    match ask with
    | Some p -> p src dst
    | None -> Bytes.length mask > 0 && Bytes.unsafe_get mask dst <> '\000'
  then
    if checked && not (Array.unsafe_get faulty dst) then '\003'
    else begin
      if traced then omit ~round ~src ~dst;
      '\001'
    end
  else if
    match link with
    | None -> true
    | Some l ->
        l.Link_intf.transmit ~trace:link_trace ~round ~src ~dst
        = Link_intf.Delivered
  then begin
    if traced then deliver ~round ~src ~dst;
    '\000'
  end
  else '\002'

(** The verdict walk of a sender [src] delivered row by row: one fate per
    expanded entry of [t] (a buffer without an attached table), asked in
    emission order and written into [out] at the entry's index in
    emission order, as {!rdeliver} reads it. A message is omitted when
    [ask] says so (a [Predicate] plan, asked once per message) or,
    without [ask], when [mask] has a non-['\000'] byte at its
    destination (['\001'] in [out]). A message not omitted goes to
    [link], when there is one, whose [transmit] gets [link_trace] and may
    lose it (['\002']); otherwise it is delivered (['\000']). [sink]
    takes the [Omit]/[Deliver] events of [round]. When [src] is not
    [faulty], omitting towards a non-[faulty] destination is illegal.
    Returns the number of omissions (link losses excluded), or
    [-1 - dst] for the first illegal omission, towards [dst]: the walk
    stops there, before writing or reporting it. *)
let verdicts t ~faulty ~round ~ask ~link ~link_trace ~sink ~mask ~src ~out =
  let checked = not faulty.(src) and traced = Option.is_some sink in
  (* the sink's entry points, bound once per walk: applied whole, they
     allocate nothing per message *)
  let events = Option.value sink ~default:Trace.Sink.null in
  let omit = Trace.Sink.omit events and deliver = Trace.Sink.deliver events in
  let omitted = ref 0 and found = ref (-1) in
  let s = ref 0 and i = ref 0 and at = ref 0 in
  while !found < 0 && !i <= t.len do
    while !found < 0 && !s < t.seg_len && t.seg_pos.(!s) <= !i do
      let k = !s in
      let lo = t.seg_lo.(k) and hi = t.seg_hi.(k) and skip = t.seg_skip.(k) in
      let desc = t.seg_desc.(k) in
      let d = ref 0 in
      while !found < 0 && !d <= hi - lo do
        let dst = if desc then hi - !d else lo + !d in
        if dst <> skip then begin
          let c =
            fate ~faulty ~round ~ask ~link ~link_trace ~traced ~omit ~deliver
              ~mask ~checked ~src dst
          in
          if c = '\003' then found := dst
          else begin
            Bytes.set out !at c;
            if c = '\001' then incr omitted;
            incr at
          end
        end;
        incr d
      done;
      incr s
    done;
    if !found < 0 && !i < t.len then begin
      let dst = Array.unsafe_get t.peers !i in
      let c =
        fate ~faulty ~round ~ask ~link ~link_trace ~traced ~omit ~deliver
          ~mask ~checked ~src dst
      in
      if c = '\003' then found := dst
      else begin
        Bytes.set out !at c;
        if c = '\001' then incr omitted;
        incr at
      end
    end;
    incr i
  done;
  if !found >= 0 then -1 - !found else !omitted

(* Verdict byte [i] of [verdicts] (as in {!rdeliver}); [Bytes.empty]
   reads ['\000'] everywhere. *)
let[@inline] verdict_at verdicts i =
  if Bytes.length verdicts = 0 then '\000' else Bytes.get verdicts i

(** Bulk delivery of one sender's survivors in reverse emission order,
    the order of {!riter}, without a closure. [verdicts] holds one byte
    per expanded entry of [t] in emission order, as {!verdicts} writes
    them: ['\000'] delivers, any other byte drops; [Bytes.empty]
    delivers every entry. *)
let rdeliver t inboxes ~peer ~verdicts =
  let at = ref (t.len + t.seg_total) in
  let s = ref (t.seg_len - 1) in
  for i = t.len - 1 downto -1 do
    (* segments pushed after slot [i] come after it in emission order,
       so in reverse order they are delivered first *)
    while !s >= 0 && t.seg_pos.(!s) > i do
      let j = !s in
      let lo = t.seg_lo.(j) and hi = t.seg_hi.(j) in
      let skip = t.seg_skip.(j) and m = t.seg_msg.(j) in
      let desc = t.seg_desc.(j) in
      for k = 0 to hi - lo do
        let dst = if desc then lo + k else hi - k in
        if dst <> skip then begin
          decr at;
          if verdict_at verdicts !at = '\000' then
            deliver_row inboxes ~peer dst m
        end
      done;
      decr s
    done;
    if i >= 0 then begin
      decr at;
      if verdict_at verdicts !at = '\000' then
        deliver_row inboxes ~peer
          (Array.unsafe_get t.peers i)
          (Array.unsafe_get t.msgs i)
    end
  done

(** The delivery of a sender [src] pushed row by row: its {!verdicts}
    walk into [scratch], grown to [t]'s length, then {!rdeliver} into
    [inboxes]. A sender with nothing to ask, transmit or report and an
    empty [mask] skips the walk. Returns what {!verdicts} returns; after
    an illegal omission nothing is delivered. *)
let deliver_rows t inboxes ~scratch ~faulty ~round ~ask ~link ~link_trace
    ~sink ~mask ~src =
  if silent ~ask ~link ~sink ~mask then begin
    rdeliver t inboxes ~peer:src ~verdicts:Bytes.empty;
    0
  end
  else begin
    if Bytes.length !scratch < length t then scratch := Bytes.create (length t);
    let out = !scratch in
    let omitted =
      verdicts t ~faulty ~round ~ask ~link ~link_trace ~sink ~mask ~src ~out
    in
    if omitted >= 0 then rdeliver t inboxes ~peer:src ~verdicts:out;
    omitted
  end

(* A table-owned mask buffer covering destinations [0 .. width - 1],
   free until the next {!shared_clear}. Its bytes are stale: the caller
   writes every destination its entry covers. *)
let pooled_mask sh ~width =
  let k = sh.s_pooled in
  if k = Array.length sh.s_pool then
    sh.s_pool <- Array.append sh.s_pool (Array.make (max 4 k) Bytes.empty);
  if Bytes.length sh.s_pool.(k) < width then sh.s_pool.(k) <- Bytes.create width;
  sh.s_pooled <- k + 1;
  sh.s_pool.(k)

(* Reverse the table entries [first .. s_len - 1] in place. *)
let shared_reverse sh first =
  let swap a i k =
    let x = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- x
  in
  let i = ref first and k = ref (sh.s_len - 1) in
  while !i < !k do
    swap sh.s_src !i !k;
    swap sh.s_msg !i !k;
    swap sh.s_lo !i !k;
    swap sh.s_hi !i !k;
    swap sh.s_key !i !k;
    swap sh.s_mask !i !k;
    incr i;
    decr k
  done

(** The verdict walk of a sender [src] delivered through the round-shared
    table, for a [t] that holds no pointwise slots. It asks each
    segment's fates in emission order, as {!verdicts} does, counts the
    omissions, and writes each drop straight into a mask indexed by
    destination, taken from the table's pool at the segment's first
    drop. A segment that drops nothing becomes an unmasked entry; one
    that drops everything gives its mask back and adds no entry; any
    other becomes an entry with its mask. The sender's entries go in in
    reverse emission order. A sender with nothing to ask, transmit or
    report and an empty [mask] skips the walk: every segment becomes an
    unmasked entry, at O(1) per segment. Returns what {!verdicts}
    returns; after an illegal omission the sender's entries are partial,
    and the round must be abandoned. *)
let rshare t sh ~faulty ~round ~ask ~link ~link_trace ~sink ~mask ~src =
  assert (t.len = 0);
  if silent ~ask ~link ~sink ~mask then begin
    for k = t.seg_len - 1 downto 0 do
      shared_push sh ~src ~lo:t.seg_lo.(k) ~hi:t.seg_hi.(k)
        ~skip:t.seg_skip.(k) ~mask:Bytes.empty t.seg_msg.(k)
    done;
    0
  end
  else begin
    let first = sh.s_len in
    let checked = not faulty.(src) and traced = Option.is_some sink in
    let events = Option.value sink ~default:Trace.Sink.null in
    let omit = Trace.Sink.omit events and deliver = Trace.Sink.deliver events in
    let omitted = ref 0 and found = ref (-1) and s = ref 0 in
    while !found < 0 && !s < t.seg_len do
      let k = !s in
      let lo = t.seg_lo.(k) and hi = t.seg_hi.(k) and skip = t.seg_skip.(k) in
      let desc = t.seg_desc.(k) in
      (* the mask is taken from the pool at the segment's first drop *)
      let out = ref Bytes.empty in
      let dropped = ref 0 and d = ref 0 in
      while !found < 0 && !d <= hi - lo do
        let dst = if desc then hi - !d else lo + !d in
        if dst <> skip then begin
          let c =
            fate ~faulty ~round ~ask ~link ~link_trace ~traced ~omit ~deliver
              ~mask ~checked ~src dst
          in
          if c = '\003' then found := dst
          else if c <> '\000' then begin
            if !dropped = 0 then begin
              out := pooled_mask sh ~width:(hi + 1);
              Bytes.fill !out lo (hi - lo + 1) '\000'
            end;
            Bytes.unsafe_set !out dst c;
            incr dropped;
            if c = '\001' then incr omitted
          end
        end;
        incr d
      done;
      let size = seg_size ~lo ~hi ~skip in
      if !dropped > 0 && (!found >= 0 || !dropped = size) then
        sh.s_pooled <- sh.s_pooled - 1
      else if !found < 0 && !dropped < size then
        shared_push sh ~src ~lo ~hi ~skip ~mask:!out t.seg_msg.(k);
      incr s
    done;
    shared_reverse sh first;
    if !found >= 0 then -1 - !found else !omitted
  end

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

(** [iter] as a fold; a {!Stop} from [f] ends it with the accumulator
    [f] last returned. *)
let fold t ~init f =
  let acc = ref init in
  iter t (fun peer m -> acc := f !acc peer m);
  !acc

(** The buffer's contents as a [(peer, msg)] list, in emission order. *)
let to_list t =
  let acc = ref [] in
  iter t (fun peer m -> acc := (peer, m) :: !acc);
  List.rev !acc

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
