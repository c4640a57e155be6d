(* Tests for the sqrt-decomposition and binary-tree bag structure. *)

(* The number of pids in group [g]. *)
let size p g =
  let lo, hi = Groups.group p g in
  hi - lo

let test_sqrt_partition_sizes () =
  List.iter
    (fun m ->
      let p = Groups.sqrt_partition m in
      let s = int_of_float (ceil (sqrt (float_of_int m))) in
      Alcotest.(check bool) "group count <= ceil(sqrt m)+1" true
        (Groups.group_count p <= s + 1);
      for g = 0 to Groups.group_count p - 1 do
        Alcotest.(check bool) "group size <= ceil(sqrt m)" true
          (size p g <= s)
      done)
    [ 1; 2; 5; 16; 17; 64; 100; 101; 144 ]

let test_partition_cover_disjoint () =
  let m = 97 in
  let p = Groups.sqrt_partition m in
  let seen = Hashtbl.create 97 in
  for g = 0 to Groups.group_count p - 1 do
    let lo, hi = Groups.group p g in
    for pid = lo to hi - 1 do
      Alcotest.(check bool) "pid not seen twice" false (Hashtbl.mem seen pid);
      Hashtbl.replace seen pid ()
    done
  done;
  Alcotest.(check int) "covers all members" m (Hashtbl.length seen)

let test_group_of_rank_of () =
  let p = Groups.sqrt_partition 50 in
  for g = 0 to Groups.group_count p - 1 do
    let lo, hi = Groups.group p g in
    for pid = lo to hi - 1 do
      Alcotest.(check int) "group_of" g (Groups.group_of p pid);
      Alcotest.(check int) "rank_of" (pid - lo) (Groups.rank_of p pid)
    done
  done

let test_group_of_nonmember () =
  let p = Groups.sqrt_partition 10 in
  Alcotest.check_raises "nonmember rejected"
    (Invalid_argument "Groups.group_of: pid not a member") (fun () ->
      ignore (Groups.group_of p 11));
  (* the members are pids 0..m-1: -1 and m are rejected by both lookups,
     while m-1 sits in the last group *)
  Alcotest.(check int) "last member in the last group" 2 (Groups.group_of p 9);
  List.iter
    (fun pid ->
      Alcotest.check_raises
        (Printf.sprintf "group_of %d" pid)
        (Invalid_argument "Groups.group_of: pid not a member")
        (fun () -> ignore (Groups.group_of p pid));
      Alcotest.check_raises
        (Printf.sprintf "rank_of %d" pid)
        (Invalid_argument "Groups.rank_of: pid not a member")
        (fun () -> ignore (Groups.rank_of p pid)))
    [ -1; 10 ]

let test_partition_into () =
  let p = Groups.partition_into 64 4 in
  Alcotest.(check int) "exactly 4 parts" 4 (Groups.group_count p);
  for g = 0 to 3 do
    Alcotest.(check int) "equal sizes" 16 (size p g)
  done;
  let p = Groups.partition_into 64 5 in
  Alcotest.(check int) "ceil sizes" 5 (Groups.group_count p)

let test_layers_and_stages () =
  Alcotest.(check int) "layers 1" 1 (Groups.layers 1);
  Alcotest.(check int) "layers 2" 2 (Groups.layers 2);
  Alcotest.(check int) "layers 3" 3 (Groups.layers 3);
  Alcotest.(check int) "layers 4" 3 (Groups.layers 4);
  Alcotest.(check int) "layers 8" 4 (Groups.layers 8);
  Alcotest.(check int) "layers 9" 5 (Groups.layers 9);
  Alcotest.(check int) "stages 8" 3 (Groups.stages 8);
  Alcotest.(check int) "stages 1" 0 (Groups.stages 1)

let test_bag_structure () =
  (* bag k at layer j is the union of its children at layer j-1 *)
  let size = 13 in
  let layers = Groups.layers size in
  for j = 2 to layers do
    let bag_count = (size + (1 lsl (j - 1)) - 1) / (1 lsl (j - 1)) in
    for k = 0 to bag_count - 1 do
      let lo = Groups.bag_lo ~size ~layer:j ~bag:k
      and hi = Groups.bag_hi ~size ~layer:j ~bag:k in
      let lc = Groups.left_child ~bag:k and rc = Groups.right_child ~bag:k in
      let llo = Groups.bag_lo ~size ~layer:(j - 1) ~bag:lc
      and lhi = Groups.bag_hi ~size ~layer:(j - 1) ~bag:lc in
      let rlo = Groups.bag_lo ~size ~layer:(j - 1) ~bag:rc
      and rhi = Groups.bag_hi ~size ~layer:(j - 1) ~bag:rc in
      Alcotest.(check int) "left child starts the bag" lo llo;
      Alcotest.(check bool) "children adjacent" true
        (lhi = rlo || (rlo = rhi && lhi = hi));
      Alcotest.(check int) "right child ends the bag" hi (max lhi rhi)
    done
  done

let test_bag_at_root () =
  (* every rank lands in bag 0 of the top layer *)
  List.iter
    (fun size ->
      let top = Groups.layers size in
      for rank = 0 to size - 1 do
        Alcotest.(check int) "root bag" 0 (Groups.bag_at ~layer:top ~rank)
      done)
    [ 1; 2; 7; 8; 13; 16 ]

let test_bag_members () =
  let p = Groups.sqrt_partition 20 in
  let ranks ~layer ~bag =
    let size = size p 0 in
    (Groups.bag_lo ~size ~layer ~bag, Groups.bag_hi ~size ~layer ~bag)
  in
  (* layer-1 bags of group 0 are singletons in rank order *)
  for rank = 0 to size p 0 - 1 do
    Alcotest.(check (pair int int)) "singleton bag" (rank, rank + 1)
      (ranks ~layer:1 ~bag:rank)
  done;
  (* top-layer bag 0 is the whole group *)
  let top = Groups.layers (size p 0) in
  Alcotest.(check (pair int int)) "root bag is group" (0, size p 0)
    (ranks ~layer:top ~bag:0)

let qcheck_bag_at_consistent =
  QCheck.Test.make ~name:"bag_at matches bag_lo/bag_hi" ~count:300
    QCheck.(triple (int_range 1 64) (int_range 1 8) (int_range 0 63))
    (fun (size, layer, rank) ->
      QCheck.assume (rank < size);
      QCheck.assume (layer <= Groups.layers size);
      let bag = Groups.bag_at ~layer ~rank in
      rank >= Groups.bag_lo ~size ~layer ~bag
      && rank < Groups.bag_hi ~size ~layer ~bag)

let qcheck_partition_into_cover =
  QCheck.Test.make ~name:"partition_into covers exactly" ~count:100
    QCheck.(pair (int_range 1 100) (int_range 1 100))
    (fun (m, parts) ->
      QCheck.assume (parts <= m);
      let p = Groups.partition_into m parts in
      let total =
        let acc = ref 0 in
        for g = 0 to Groups.group_count p - 1 do
          acc := !acc + size p g
        done;
        !acc
      in
      total = m)

let suite =
  [
    Alcotest.test_case "sqrt partition sizes" `Quick test_sqrt_partition_sizes;
    Alcotest.test_case "partition covers, disjoint" `Quick
      test_partition_cover_disjoint;
    Alcotest.test_case "group_of / rank_of" `Quick test_group_of_rank_of;
    Alcotest.test_case "group_of nonmember" `Quick test_group_of_nonmember;
    Alcotest.test_case "partition_into" `Quick test_partition_into;
    Alcotest.test_case "layers and stages" `Quick test_layers_and_stages;
    Alcotest.test_case "bag tree structure" `Quick test_bag_structure;
    Alcotest.test_case "root bag" `Quick test_bag_at_root;
    Alcotest.test_case "bag members" `Quick test_bag_members;
    QCheck_alcotest.to_alcotest qcheck_bag_at_consistent;
    QCheck_alcotest.to_alcotest qcheck_partition_into_cover;
  ]
