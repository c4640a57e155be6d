(** Deterministic partitions of the process set and the binary-tree bag
    decomposition used by GroupBitsAggregation (Figures 1-2 of the paper).

    Everything here is a pure function of the member list, so all processes
    compute identical structures locally without communication — exactly the
    paper's "predefined partition". *)

type t = {
  members : int array;  (** the processes being partitioned, in order *)
  group_size : int;  (** maximum group size S *)
  group_count : int;
  group_of : int array;  (** pid -> group index, -1 for non-members *)
  rank_of : int array;  (** pid -> rank within its group, -1 for non-members *)
  groups : int array array;  (** group index -> member pids *)
}

(** Partition [members] into [ceil (m / size)] contiguous groups of at most
    [size] members each. *)
let partition_with_size members size =
  let m = Array.length members in
  if m = 0 then invalid_arg "Groups.partition_with_size: no members";
  if size <= 0 then invalid_arg "Groups.partition_with_size: size <= 0";
  let group_count = (m + size - 1) / size in
  let groups =
    Array.init group_count (fun g ->
        let start = g * size in
        let len = min size (m - start) in
        Array.sub members start len)
  in
  if Array.exists (fun pid -> pid < 0) members then
    invalid_arg "Groups.partition_with_size: negative pid";
  let bound = Array.fold_left max 0 members + 1 in
  let group_of = Array.make bound (-1) and rank_of = Array.make bound (-1) in
  Array.iteri
    (fun g grp ->
      Array.iteri
        (fun rank pid ->
          group_of.(pid) <- g;
          rank_of.(pid) <- rank)
        grp)
    groups;
  { members; group_size = size; group_count; group_of; rank_of; groups }

(** The group size of {!sqrt_partition} over [m] members: ceil(sqrt m),
    at least 1. *)
let sqrt_size m = max 1 (int_of_float (ceil (sqrt (float_of_int m))))

(** The paper's sqrt-decomposition: ceil(sqrt m) groups of size at most
    ceil(sqrt m). *)
let sqrt_partition members =
  partition_with_size members (sqrt_size (Array.length members))

(** Partition into exactly [parts] groups of size at most ceil(m/parts) —
    the super-processes SP_1..SP_x of Algorithm 4. *)
let partition_into members parts =
  let m = Array.length members in
  if parts <= 0 || parts > m then
    invalid_arg "Groups.partition_into: parts must be in [1, m]";
  partition_with_size members ((m + parts - 1) / parts)

(* Bounds-checked lookup in a pid-indexed table: negative pids, pids past
   the largest member and pids in a gap of a non-contiguous member set all
   read as non-members. *)
let lookup name tbl pid =
  let v = if pid >= 0 && pid < Array.length tbl then tbl.(pid) else -1 in
  if v < 0 then invalid_arg (name ^ ": pid not a member");
  v

let group_of t pid = lookup "Groups.group_of" t.group_of pid
let rank_of t pid = lookup "Groups.rank_of" t.rank_of pid

let group t g = t.groups.(g)
let group_count t = t.group_count

(* ------------------------------------------------------------------ *)
(* Binary-tree bag decomposition within a group                        *)
(* ------------------------------------------------------------------ *)

(** Layers are 1-based: layer 1 holds [size] singleton bags; bag [k] of
    layer [j] is the union of bags [2k] and [2k+1] of layer [j-1] (0-based
    bag indices; the paper writes 1-based [2k-1], [2k]). The top layer
    [layers size] holds the single bag equal to the whole group. *)

(** Number of layers for a group of [size] members: ceil(log2 size) + 1
    (a singleton group has one layer and no relay stages). *)
let layers size =
  if size <= 0 then invalid_arg "Groups.layers: size <= 0";
  let rec go acc cap = if cap >= size then acc else go (acc + 1) (cap * 2) in
  go 1 1

(** Relay stages executed by GroupBitsAggregation: one per layer above the
    first. *)
let stages size = layers size - 1

(** Bag containing the member of rank [rank] at layer [j]. *)
let bag_at ~layer ~rank =
  if layer < 1 then invalid_arg "Groups.bag_at: layer < 1";
  rank lsr (layer - 1)

(** Children bag indices of bag [k] at layer [j] (they live at layer j-1). *)
let children ~bag = (2 * bag, (2 * bag) + 1)

(** Ranks covered by bag [k] of layer [j], clipped to the group [size]. The
    range may be empty (the paper's empty bags). *)
let bag_ranks ~size ~layer ~bag =
  let lo = bag lsl (layer - 1) in
  let hi = min size (lo + (1 lsl (layer - 1))) in
  if lo >= size then (size, size) else (lo, hi)

let bag_members t ~group:g ~layer ~bag =
  let grp = t.groups.(g) in
  let lo, hi = bag_ranks ~size:(Array.length grp) ~layer ~bag in
  Array.sub grp lo (hi - lo)
