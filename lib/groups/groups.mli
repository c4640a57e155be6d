(** Deterministic partitions of pids 0..m-1 and the binary-tree bag
    decomposition of GroupBitsAggregation (Figures 1-2 of the paper).
    Everything is arithmetic on the member count, so all processes
    compute identical structures without communication. A group is a
    range of consecutive pids. *)

type t = {
  m : int;  (** member count: the members are pids 0..m-1 *)
  group_size : int;  (** maximum group size S *)
  group_count : int;
}

val sqrt_size : int -> int
(** The group size of {!sqrt_partition} over [m] members: ceil(sqrt m),
    at least 1. *)

val sqrt_partition : int -> t
(** The paper's sqrt-decomposition of [m] members: ceil(sqrt m) groups of
    size at most ceil(sqrt m). *)

val partition_into : int -> int -> t
(** [partition_into m parts]: exactly [parts] groups of size at most
    ceil(m/parts) — the super-processes of Algorithm 4. *)

val group_of : t -> int -> int
(** Group index of a member pid: [pid / group_size]. Raises
    [Invalid_argument] outside 0..m-1. *)

val rank_of : t -> int -> int
(** Rank of a member within its group: [pid mod group_size]. Raises
    [Invalid_argument] outside 0..m-1. *)

val group : t -> int -> int * int
(** The half-open pid range [[lo, hi)] of a group. Raises
    [Invalid_argument] outside 0..group_count-1. *)

val group_count : t -> int

(** {1 Binary-tree bags}

    Layers are 1-based. Layer 1 holds singleton bags in rank order; bag [k]
    of layer [j] is the union of bags [2k] and [2k+1] of layer [j-1]; the
    top layer holds one bag covering the whole group. *)

val layers : int -> int
(** Number of layers for a group of the given size (1 for singletons). *)

val stages : int -> int
(** Relay stages of GroupBitsAggregation: [layers size - 1]. *)

val bag_at : layer:int -> rank:int -> int
(** Bag containing the member of [rank] at [layer]. *)

val left_child : bag:int -> int
val right_child : bag:int -> int
(** Children bag indices (they live one layer down). *)

val bag_lo : size:int -> layer:int -> bag:int -> int
val bag_hi : size:int -> layer:int -> bag:int -> int
(** The rank half-open interval [[bag_lo, bag_hi)] a bag covers, clipped
    to the group size (possibly empty — the paper's empty bags). Two
    functions, not a pair, so that Algorithm 2's relay allocates nothing. *)
