(** Sparse random communication graphs with the combinatorial properties of
    Theorem 4 of the paper, and the pruning/growth lemmas (Lemmas 3-4) that
    make the operative/inoperative partition work.

    All processes construct the same graph locally from [(n, delta, seed)]
    — the reproduction's stand-in for the paper's "lexicographically
    smallest graph satisfying Theorem 4" (see DESIGN.md, substitution 2). *)

type t

val n : t -> int
(** Number of vertices. *)

val delta : t -> int
(** Expected degree the graph was sampled with. *)

val neighbors : t -> int -> int array
(** Sorted adjacency list of a vertex. *)

val degree : t -> int -> int

val index_sorted : int array -> int -> int
(** Position of [v] in the ascending array, or -1; binary search. *)

val neighbor_index : t -> int -> int -> int
(** [neighbor_index g u v] — the position of [v] in [neighbors g u], or -1
    if there is no edge: {!index_sorted} on the adjacency list. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] is [neighbor_index g u v >= 0]. *)

val edge_count : t -> int

val default_delta : ?c:int -> int -> int
(** [default_delta n] = [c * ceil(log2 n)] clamped to [n-1]; [c] defaults
    to 8. The paper's Delta = 832 log n shape with a simulation-scale
    constant. *)

val sample : n:int -> delta:int -> seed:int64 -> t
(** One draw of R(n, delta/(n-1)): each edge present independently.
    Deterministic in the seed. Raises [Invalid_argument] if [n < 2]. *)

(** {1 Theorem 4 property checks} *)

val degree_bounds_ok : t -> lo:float -> hi:float -> bool
(** Property (iii): every degree within [[lo*delta, hi*delta]]. *)

val edge_sparsity_ok :
  ?samples:int -> t -> max_size:int -> alpha:float -> seed:int64 -> bool
(** Property (ii), sampled: random subsets of size at most [max_size] have
    at most [alpha * size] internal edges. *)

val expansion_ok : ?samples:int -> t -> set_size:int -> seed:int64 -> bool
(** Property (i), sampled: random disjoint [set_size]-subsets are always
    joined by an edge. Requires [2 * set_size <= n]. *)

(** {1 Lemmas 3-4} *)

val prune : t -> removed:bool array -> min_deg:int -> bool array
(** Iteratively discard vertices whose degree among survivors drops below
    [min_deg], starting from the complement of [removed]. The survivor mask
    is Lemma 4's dense core: if the input graph satisfies Theorem 4 and
    [removed] has at most n/15 vertices, at least [n - 4/3 |removed|]
    vertices survive with [min_deg = delta/3]. *)

val mask_size : bool array -> int

val neighborhood_growth :
  t -> mask:bool array -> v:int -> max_depth:int -> int array
(** Element [d] is |ball of radius d around [v]| within [mask] — the
    doubling growth of Lemma 3. *)

val eccentricity_within : t -> mask:bool array -> v:int -> int option
(** Longest shortest path from [v] within [mask], or [None] if [mask] is
    disconnected from [v] — the "shallow" property. *)

(** {1 The common predetermined graph} *)

exception No_good_graph of string

val create_good :
  ?attempts:int -> n:int -> delta:int -> seed:int64 -> unit -> t
(** Resample until the Theorem 4 checks pass (degree bounds always; sampled
    sparsity and expansion for [n >= 20]). Deterministic in the seed, hence
    identical at every process. Raises {!No_good_graph} after [attempts]
    failures. *)
