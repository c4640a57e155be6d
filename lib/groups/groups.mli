(** Deterministic partitions of a member set and the binary-tree bag
    decomposition of GroupBitsAggregation (Figures 1-2 of the paper).
    Everything is a pure function of the member array, so all processes
    compute identical structures without communication. *)

type t = {
  members : int array;
  group_size : int;  (** maximum group size S *)
  group_count : int;
  group_of : int array;  (** indexed by pid; -1 for non-members *)
  rank_of : int array;  (** indexed by pid; -1 for non-members *)
  groups : int array array;
}

val partition_with_size : int array -> int -> t
(** Contiguous groups of at most the given size. Member pids must be
    non-negative: the pid-indexed tables are sized by the largest one. *)

val sqrt_size : int -> int
(** The group size of {!sqrt_partition} over [m] members: ceil(sqrt m),
    at least 1. *)

val sqrt_partition : int array -> t
(** The paper's sqrt-decomposition: ceil(sqrt m) groups of size at most
    ceil(sqrt m). *)

val partition_into : int array -> int -> t
(** Exactly [parts] groups of size at most ceil(m/parts) — the
    super-processes of Algorithm 4. *)

val group_of : t -> int -> int
(** Group index of a member pid. Raises [Invalid_argument] on non-members. *)

val rank_of : t -> int -> int
(** Rank of a member within its group. Raises [Invalid_argument] on
    non-members. *)

val group : t -> int -> int array
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

val children : bag:int -> int * int
(** Children bag indices (they live one layer down). *)

val bag_ranks : size:int -> layer:int -> bag:int -> int * int
(** Rank half-open interval [lo, hi) a bag covers, clipped to the group
    size (possibly empty — the paper's empty bags). *)

val bag_members : t -> group:int -> layer:int -> bag:int -> int array
