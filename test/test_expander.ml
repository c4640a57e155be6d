(* Tests for the Theorem-4 graph machinery. *)

let graph ?(n = 256) ?(seed = 1L) () =
  let delta = Expander.default_delta n in
  Expander.create_good ~n ~delta ~seed ()

let test_determinism () =
  let g1 = Expander.sample ~n:64 ~delta:16 ~seed:9L in
  let g2 = Expander.sample ~n:64 ~delta:16 ~seed:9L in
  Alcotest.(check int) "same edge count" (Expander.edge_count g1)
    (Expander.edge_count g2);
  for v = 0 to 63 do
    Alcotest.(check (array int)) "same adjacency" (Expander.neighbors g1 v)
      (Expander.neighbors g2 v)
  done

let test_symmetry () =
  let g = graph () in
  for v = 0 to Expander.n g - 1 do
    Array.iter
      (fun u ->
        Alcotest.(check bool) "edge symmetric" true (Expander.mem_edge g u v))
      (Expander.neighbors g v)
  done

let test_no_self_loops () =
  let g = graph () in
  for v = 0 to Expander.n g - 1 do
    Alcotest.(check bool) "no self loop" false (Expander.mem_edge g v v)
  done

let test_mem_edge_consistent () =
  let g = graph ~n:64 () in
  let n = Expander.n g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let in_list = Array.exists (fun w -> w = v) (Expander.neighbors g u) in
      Alcotest.(check bool) "mem_edge = adjacency" in_list
        (Expander.mem_edge g u v)
    done
  done

(* The loop binary search against a linear scan, for every pair of a
   sampled graph: neighbours, non-neighbours, and [v] below the first or
   past the last neighbour (including outside 0..n-1). *)
let test_neighbor_index_reference () =
  let g = graph ~n:64 () in
  let n = Expander.n g in
  for u = 0 to n - 1 do
    let a = Expander.neighbors g u in
    for v = -2 to n + 1 do
      let expected = ref (-1) in
      Array.iteri (fun i w -> if w = v && !expected < 0 then expected := i) a;
      Alcotest.(check int) "neighbor_index = linear scan" !expected
        (Expander.neighbor_index g u v)
    done
  done

let test_degree_concentration () =
  let g = graph ~n:512 () in
  Alcotest.(check bool) "degrees within [delta/2, 1.6 delta]" true
    (Expander.degree_bounds_ok g ~lo:0.5 ~hi:1.6)

let test_expansion () =
  let g = graph ~n:512 () in
  Alcotest.(check bool) "n/10-expanding (sampled)" true
    (Expander.expansion_ok g ~samples:40 ~set_size:51 ~seed:3L)

let test_edge_sparsity () =
  let g = graph ~n:512 () in
  let alpha = float_of_int (Expander.delta g) /. 4. in
  Alcotest.(check bool) "edge-sparse (sampled)" true
    (Expander.edge_sparsity_ok g ~samples:40 ~max_size:51 ~alpha ~seed:4L)

let test_prune_lemma4 () =
  (* Lemma 4: removing |T| <= n/15 nodes leaves a core of >= n - 4/3 |T| *)
  let g = graph ~n:512 () in
  let n = Expander.n g in
  let t_size = n / 15 in
  let removed = Array.init n (fun v -> v < t_size) in
  let core = Expander.prune g ~removed ~min_deg:(Expander.delta g / 3) in
  let size = Expander.mask_size core in
  Alcotest.(check bool)
    (Printf.sprintf "core %d >= %d" size (n - (4 * t_size / 3)))
    true
    (size >= n - (4 * t_size / 3));
  (* the core excludes the removed set *)
  for v = 0 to t_size - 1 do
    Alcotest.(check bool) "removed not in core" false core.(v)
  done

let test_prune_min_degree () =
  let g = graph ~n:256 () in
  let n = Expander.n g in
  let removed = Array.init n (fun v -> v mod 13 = 0) in
  let min_deg = Expander.delta g / 3 in
  let core = Expander.prune g ~removed ~min_deg in
  (* every survivor has >= min_deg surviving neighbors *)
  for v = 0 to n - 1 do
    if core.(v) then begin
      let d =
        Array.fold_left
          (fun a u -> if core.(u) then a + 1 else a)
          0 (Expander.neighbors g v)
      in
      Alcotest.(check bool) "survivor degree" true (d >= min_deg)
    end
  done

let test_prune_empty_removed () =
  let g = graph ~n:128 () in
  let removed = Array.make 128 false in
  let core = Expander.prune g ~removed ~min_deg:(Expander.delta g / 3) in
  Alcotest.(check int) "nothing pruned on a good graph" 128
    (Expander.mask_size core)

let test_core_shallow () =
  (* the "shallow" property: the dense core has small diameter *)
  let g = graph ~n:512 () in
  let n = Expander.n g in
  let removed = Array.init n (fun v -> v < n / 15) in
  let core = Expander.prune g ~removed ~min_deg:(Expander.delta g / 3) in
  let v = ref 0 in
  while not core.(!v) do
    incr v
  done;
  match Expander.eccentricity_within g ~mask:core ~v:!v with
  | None -> Alcotest.fail "core disconnected"
  | Some e ->
      let log2n = ceil (log (float_of_int n) /. log 2.) in
      Alcotest.(check bool)
        (Printf.sprintf "eccentricity %d <= 2 log2 n = %.0f" e (2. *. log2n))
        true
        (float_of_int e <= 2. *. log2n)

let test_neighborhood_growth () =
  (* Lemma 3: dense neighborhoods double until they hit Theta(n) *)
  let g = graph ~n:512 () in
  let mask = Array.make (Expander.n g) true in
  let sizes = Expander.neighborhood_growth g ~mask ~v:0 ~max_depth:6 in
  Alcotest.(check bool) "ball reaches n/10 within log rounds" true
    (sizes.(6) >= Expander.n g / 10);
  Alcotest.(check bool) "growth is monotone" true
    (let ok = ref true in
     for d = 1 to 6 do
       if sizes.(d) < sizes.(d - 1) then ok := false
     done;
     !ok)

let test_small_graphs () =
  (* create_good must work at the sizes Algorithm 4's sub-runs use *)
  List.iter
    (fun n ->
      let delta = Expander.default_delta n in
      let g = Expander.create_good ~n ~delta ~seed:5L () in
      Alcotest.(check int) "size" n (Expander.n g))
    [ 2; 3; 5; 8; 16; 33 ]

let test_sample_invalid () =
  Alcotest.check_raises "n=1 rejected"
    (Invalid_argument "Expander.sample: n must be >= 2") (fun () ->
      ignore (Expander.sample ~n:1 ~delta:4 ~seed:1L))

let qcheck_prune_subset =
  QCheck.Test.make ~name:"prune result disjoint from removed" ~count:30
    QCheck.(pair (int_range 10 80) small_int)
    (fun (n, seed) ->
      let g = Expander.sample ~n ~delta:(Expander.default_delta n)
          ~seed:(Int64.of_int seed) in
      let removed = Array.init n (fun v -> v mod 7 = 3) in
      let core = Expander.prune g ~removed ~min_deg:2 in
      Array.for_all2 (fun r c -> not (r && c)) removed core)

let suite =
  [
    Alcotest.test_case "sampling determinism" `Quick test_determinism;
    Alcotest.test_case "edge symmetry" `Quick test_symmetry;
    Alcotest.test_case "no self loops" `Quick test_no_self_loops;
    Alcotest.test_case "mem_edge consistency" `Quick test_mem_edge_consistent;
    Alcotest.test_case "degree concentration (Thm 4 iii)" `Quick
      test_degree_concentration;
    Alcotest.test_case "expansion (Thm 4 i)" `Quick test_expansion;
    Alcotest.test_case "edge sparsity (Thm 4 ii)" `Quick test_edge_sparsity;
    Alcotest.test_case "Lemma 4 core size" `Quick test_prune_lemma4;
    Alcotest.test_case "prune min degree invariant" `Quick
      test_prune_min_degree;
    Alcotest.test_case "prune with nothing removed" `Quick
      test_prune_empty_removed;
    Alcotest.test_case "core is shallow" `Quick test_core_shallow;
    Alcotest.test_case "Lemma 3 neighborhood growth" `Quick
      test_neighborhood_growth;
    Alcotest.test_case "small graphs" `Quick test_small_graphs;
    Alcotest.test_case "sample invalid" `Quick test_sample_invalid;
    QCheck_alcotest.to_alcotest qcheck_prune_subset;
    Alcotest.test_case "neighbor_index = linear scan" `Quick
      test_neighbor_index_reference;
  ]
