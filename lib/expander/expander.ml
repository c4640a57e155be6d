(** Sparse random communication graphs and the combinatorial properties of
    Theorem 4 / Lemmas 3-4 of the paper.

    The paper's processes agree on a predetermined graph with the Theorem 4
    properties (they pick the lexicographically smallest one). We instead
    sample R(n, delta/(n-1)) from a seed shared by all processes and
    re-sample until the property checks pass — equivalent functionality: a
    common predetermined graph with verified properties, no communication
    needed (see DESIGN.md, substitution 2).

    The paper's constant Delta = 832 log n is meaningless at simulation
    scale, so the degree parameter is explicit; defaults live in
    {!default_delta}. *)

type t = {
  n : int;
  delta : int;  (** expected degree used at sampling time *)
  adj : int array array;  (** sorted adjacency lists *)
}

let n t = t.n
let delta t = t.delta
let neighbors t v = t.adj.(v)
let degree t v = Array.length t.adj.(v)

(* Binary search as a loop: a local [let rec] capturing [a] and [v]
   would allocate a closure per call, once per received spreading
   message. *)
let index_sorted a v =
  let lo = ref 0 and hi = ref (Array.length a) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = a.(mid) in
    if x = v then found := mid else if x < v then lo := mid + 1 else hi := mid
  done;
  !found

let neighbor_index t u v = index_sorted t.adj.(u) v
let mem_edge t u v = neighbor_index t u v >= 0

let edge_count t =
  Array.fold_left (fun acc a -> acc + Array.length a) 0 t.adj / 2

(** Default expected degree: c * ceil(log2 n), clamped to n-1. The paper
    uses 832 log n; we keep the Theta(log n) shape with a constant that
    leaves the graph sparse at laptop scale. *)
let default_delta ?(c = 8) n =
  min (n - 1) (max 6 (c * int_of_float (ceil (log (float_of_int n) /. log 2.))))

let sample ~n ~delta ~seed =
  if n < 2 then invalid_arg "Expander.sample: n must be >= 2";
  let delta = min delta (n - 1) in
  let rand = Sim.Rand.create ~seed () in
  let p = float_of_int delta /. float_of_int (n - 1) in
  let lists = Array.make n [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Sim.Rand.chance rand p then begin
        lists.(i) <- j :: lists.(i);
        lists.(j) <- i :: lists.(j)
      end
    done
  done;
  let adj = Array.map (fun l -> Array.of_list (List.rev l)) lists in
  Array.iter (fun a -> Array.sort compare a) adj;
  { n; delta; adj }

(* ------------------------------------------------------------------ *)
(* Theorem 4 property checks                                           *)
(* ------------------------------------------------------------------ *)

(** Property (iii): every degree within [lo*delta, hi*delta]. The paper
    proves [19/20, 21/20] for Delta = 832 log n; at small Delta the
    concentration is weaker, so callers pass looser factors. *)
let degree_bounds_ok t ~lo ~hi =
  let d = float_of_int t.delta in
  let ok = ref true in
  for v = 0 to t.n - 1 do
    let dv = float_of_int (degree t v) in
    if dv < lo *. d || dv > hi *. d then ok := false
  done;
  !ok

let count_internal_edges t subset_mask =
  let count = ref 0 in
  for v = 0 to t.n - 1 do
    if subset_mask.(v) then
      Array.iter (fun u -> if u > v && subset_mask.(u) then incr count) t.adj.(v)
  done;
  !count

let random_subset_mask rand n size =
  let perm = Array.init n (fun i -> i) in
  Sim.Rand.shuffle rand perm;
  let mask = Array.make n false in
  for i = 0 to size - 1 do
    mask.(perm.(i)) <- true
  done;
  mask

(** Property (ii), sampled: random subsets X with |X| <= max_size have at
    most [alpha * |X|] internal edges. (Exhaustive checking is exponential;
    random subsets are exactly the first moment the paper's union bound
    controls.) *)
let edge_sparsity_ok ?(samples = 50) t ~max_size ~alpha ~seed =
  let rand = Sim.Rand.create ~seed () in
  let ok = ref true in
  for _ = 1 to samples do
    let size = 2 + Sim.Rand.int_below rand (max 1 (max_size - 1)) in
    let mask = random_subset_mask rand t.n size in
    let internal = count_internal_edges t mask in
    if float_of_int internal > alpha *. float_of_int size then ok := false
  done;
  !ok

(** Property (i), sampled: random disjoint vertex sets of size [set_size]
    are always connected by at least one edge. *)
let expansion_ok ?(samples = 50) t ~set_size ~seed =
  let rand = Sim.Rand.create ~seed () in
  let ok = ref true in
  for _ = 1 to samples do
    let perm = Array.init t.n (fun i -> i) in
    Sim.Rand.shuffle rand perm;
    let in_x = Array.make t.n false and in_y = Array.make t.n false in
    for i = 0 to set_size - 1 do
      in_x.(perm.(i)) <- true;
      in_y.(perm.(set_size + i)) <- true
    done;
    let connected = ref false in
    for v = 0 to t.n - 1 do
      if in_x.(v) then
        Array.iter (fun u -> if in_y.(u) then connected := true) t.adj.(v)
    done;
    if not !connected then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Lemma 4: pruning to a high-degree core                              *)
(* ------------------------------------------------------------------ *)

(** [prune t ~removed ~min_deg] iteratively discards vertices (beyond the
    initially [removed] ones) whose degree among survivors falls below
    [min_deg], and returns the survivor mask — the set A of Lemma 4: after
    the adversary disables the [removed] set, A is a core in which every
    member keeps at least [min_deg] live links. *)
let prune t ~removed ~min_deg =
  let alive = Array.map not removed in
  let deg = Array.make t.n 0 in
  for v = 0 to t.n - 1 do
    if alive.(v) then
      Array.iter (fun u -> if alive.(u) then deg.(v) <- deg.(v) + 1) t.adj.(v)
  done;
  let queue = Queue.create () in
  for v = 0 to t.n - 1 do
    if alive.(v) && deg.(v) < min_deg then Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if alive.(v) then begin
      alive.(v) <- false;
      Array.iter
        (fun u ->
          if alive.(u) then begin
            deg.(u) <- deg.(u) - 1;
            if deg.(u) < min_deg then Queue.add u queue
          end)
        t.adj.(v)
    end
  done;
  alive

let mask_size mask = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask

(* ------------------------------------------------------------------ *)
(* Lemma 3: dense neighborhoods grow fast                              *)
(* ------------------------------------------------------------------ *)

(** BFS layer sizes from [v] restricted to [mask]: element d is
    |N^d(v) ∩ mask|. Used to measure the "shallow" property — the dense
    core has logarithmic diameter. *)
let neighborhood_growth t ~mask ~v ~max_depth =
  if not mask.(v) then invalid_arg "Expander.neighborhood_growth: v not in mask";
  let dist = Array.make t.n (-1) in
  dist.(v) <- 0;
  let frontier = ref [ v ] in
  let reached = ref 1 in
  let sizes = Array.make (max_depth + 1) 0 in
  sizes.(0) <- 1;
  (try
     for d = 1 to max_depth do
       let next = ref [] in
       List.iter
         (fun u ->
           Array.iter
             (fun w ->
               if mask.(w) && dist.(w) = -1 then begin
                 dist.(w) <- d;
                 incr reached;
                 next := w :: !next
               end)
             t.adj.(u))
         !frontier;
       frontier := !next;
       sizes.(d) <- !reached;
       if !next = [] then raise Exit
     done
   with Exit -> begin
     (* fill the tail: the ball stopped growing *)
     let last = !reached in
     for d = 0 to max_depth do
       if sizes.(d) = 0 then sizes.(d) <- last
     done
   end);
  sizes

(** Eccentricity of [v] within [mask] (longest shortest path), or [None]
    if some mask vertex is unreachable. *)
let eccentricity_within t ~mask ~v =
  let dist = Array.make t.n (-1) in
  dist.(v) <- 0;
  let q = Queue.create () in
  Queue.add v q;
  let ecc = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun w ->
        if mask.(w) && dist.(w) = -1 then begin
          dist.(w) <- dist.(u) + 1;
          if dist.(w) > !ecc then ecc := dist.(w);
          Queue.add w q
        end)
      t.adj.(u)
  done;
  let all_reached = ref true in
  for w = 0 to t.n - 1 do
    if mask.(w) && dist.(w) = -1 then all_reached := false
  done;
  if !all_reached then Some !ecc else None

(* ------------------------------------------------------------------ *)
(* The common predetermined graph                                      *)
(* ------------------------------------------------------------------ *)

exception No_good_graph of string

(** Resample until the Theorem 4 checks pass. All processes call this with
    the same (n, delta, seed) and hence obtain the same graph. Degree
    bounds are checked with factors loosened for small Delta; sparsity and
    expansion are sampled. *)
let create_good ?(attempts = 20) ~n ~delta ~seed () =
  let rec go k =
    if k >= attempts then
      raise
        (No_good_graph
           (Printf.sprintf "no good graph for n=%d delta=%d after %d attempts"
              n delta attempts));
    let g = sample ~n ~delta ~seed:(Int64.add seed (Int64.of_int (k * 7919))) in
    let degree_ok = degree_bounds_ok g ~lo:0.5 ~hi:1.6 in
    let set_size = max 2 (n / 10) in
    (* concentration is meaningless below a few dozen nodes — tiny graphs
       are (near-)complete and trivially well-connected *)
    let sparsity_ok =
      n < 20
      || edge_sparsity_ok g ~samples:30 ~max_size:set_size
           ~alpha:(float_of_int delta /. 4.)
           ~seed:(Int64.of_int (Int64.to_int seed + 13))
    in
    let expansion_ok' =
      n < 20
      || expansion_ok g ~samples:30 ~set_size
           ~seed:(Int64.of_int (Int64.to_int seed + 17))
    in
    if degree_ok && sparsity_ok && expansion_ok' then g else go (k + 1)
  in
  go 0
