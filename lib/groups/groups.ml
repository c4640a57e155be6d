(** Deterministic partitions of the process set and the binary-tree bag
    decomposition used by GroupBitsAggregation (Figures 1-2 of the paper).

    Everything here is arithmetic on the member count, so all processes
    compute identical structures locally without communication — exactly the
    paper's "predefined partition". The members are pids 0..m-1 and group
    [g] is the pid range [g * group_size, min m ((g + 1) * group_size)). *)

type t = {
  m : int;  (** member count: the members are pids 0..m-1 *)
  group_size : int;  (** maximum group size S *)
  group_count : int;
}

(** Partition pids 0..m-1 into [ceil (m / size)] consecutive groups of at
    most [size] members each. *)
let partition_with_size m size =
  if m <= 0 then invalid_arg "Groups.partition_with_size: no members";
  if size <= 0 then invalid_arg "Groups.partition_with_size: size <= 0";
  { m; group_size = size; group_count = (m + size - 1) / size }

(** The group size of {!sqrt_partition} over [m] members: ceil(sqrt m),
    at least 1. *)
let sqrt_size m = max 1 (int_of_float (ceil (sqrt (float_of_int m))))

(** The paper's sqrt-decomposition: ceil(sqrt m) groups of size at most
    ceil(sqrt m). *)
let sqrt_partition m = partition_with_size m (sqrt_size m)

(** Partition into exactly [parts] groups of size at most ceil(m/parts) —
    the super-processes SP_1..SP_x of Algorithm 4. *)
let partition_into m parts =
  if parts <= 0 || parts > m then
    invalid_arg "Groups.partition_into: parts must be in [1, m]";
  partition_with_size m ((m + parts - 1) / parts)

let check name t pid =
  if pid < 0 || pid >= t.m then invalid_arg (name ^ ": pid not a member")

let group_of t pid =
  check "Groups.group_of" t pid;
  pid / t.group_size

let rank_of t pid =
  check "Groups.rank_of" t pid;
  pid mod t.group_size

let group t g =
  if g < 0 || g >= t.group_count then invalid_arg "Groups.group: no such group";
  (g * t.group_size, min t.m ((g + 1) * t.group_size))
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
let left_child ~bag = 2 * bag
let right_child ~bag = (2 * bag) + 1

(** Ranks covered by bag [k] of layer [j]: [[bag_lo, bag_hi)], clipped to
    the group [size]. The range may be empty (the paper's empty bags). Two
    functions rather than one pair, so the relay loop allocates nothing. *)
let bag_lo ~size ~layer ~bag = min size (bag lsl (layer - 1))
let bag_hi ~size ~layer ~bag = min size ((bag + 1) lsl (layer - 1))
