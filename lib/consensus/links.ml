(* Silent links belong to faulty processes, so disregarding them for good
   is conservative (the paper's "refuses to accept messages from them in
   any future round"). *)

type t = {
  nbrs : int array;  (** neighbour pids, ascending *)
  disregarded : Bytes.t;  (** by position in [nbrs], permanent *)
  heard : Bytes.t;  (** by position in [nbrs], this slot *)
  threshold : int;  (** Delta/3 *)
  mutable cursor : int;  (** how far this slot's senders moved in [nbrs] *)
  mutable heard_count : int;  (** distinct live neighbours heard this slot *)
}

let make nbrs threshold =
  let deg = Array.length nbrs in
  let disregarded = Bytes.make deg '\000' and heard = Bytes.make deg '\000' in
  { nbrs; disregarded; heard; threshold; cursor = 0; heard_count = 0 }

let create ?(offset = 0) g v =
  let nbrs = Expander.neighbors g v in
  let nbrs = if offset = 0 then nbrs else Array.map (( + ) offset) nbrs in
  make nbrs (Expander.delta g / 3)

let none () = make [||] 0

let start l =
  Bytes.fill l.heard 0 (Bytes.length l.heard) '\000';
  l.cursor <- 0;
  l.heard_count <- 0

(* Senders arrive in ascending order, so a cursor that only moves forward
   finds each neighbour in O(1) amortised, and a repeated sender stays on
   it. A sender not above the entry before the cursor is out of order and
   falls back to the binary search. *)
let hear l src =
  let nbrs = l.nbrs in
  let deg = Array.length nbrs in
  let c = ref l.cursor in
  while !c < deg && Array.unsafe_get nbrs !c < src do
    incr c
  done;
  let c = !c in
  l.cursor <- c;
  let i =
    if c < deg && Array.unsafe_get nbrs c = src then c
    else if c = 0 || Array.unsafe_get nbrs (c - 1) < src then -1
    else Expander.index_sorted nbrs src
  in
  i >= 0
  && Bytes.unsafe_get l.disregarded i = '\000'
  &&
  (if Bytes.unsafe_get l.heard i = '\000' then begin
     Bytes.unsafe_set l.heard i '\001';
     l.heard_count <- l.heard_count + 1
   end;
   true)

let close l =
  for i = 0 to Bytes.length l.heard - 1 do
    if Bytes.unsafe_get l.heard i = '\000' then
      Bytes.unsafe_set l.disregarded i '\001'
  done;
  l.heard_count >= l.threshold

(* Descending: the protocols once built their outboxes by consing over
   the ascending neighbour array, and every trace keeps that order. *)
let emit_live l emit m =
  for i = Array.length l.nbrs - 1 downto 0 do
    if Bytes.unsafe_get l.disregarded i = '\000' then
      emit (Array.unsafe_get l.nbrs i) m
  done
