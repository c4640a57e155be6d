(* Unit and property tests for the counted random source. *)

let check = Alcotest.check

let test_determinism () =
  let a = Sim.Rand.create ~seed:7L () in
  let b = Sim.Rand.create ~seed:7L () in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Sim.Rand.bits a 30) (Sim.Rand.bits b 30)
  done

let test_seed_sensitivity () =
  let a = Sim.Rand.create ~seed:7L () in
  let b = Sim.Rand.create ~seed:8L () in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rand.bit a = Sim.Rand.bit b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 64)

let test_derive_independent () =
  let root = Sim.Rand.create ~seed:1L () in
  let a = Sim.Rand.derive root 1 and b = Sim.Rand.derive root 2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rand.bits a 16 = Sim.Rand.bits b 16 then incr equal
  done;
  Alcotest.(check bool) "derived streams differ" true (!equal < 4)

let test_derive_stable () =
  let root = Sim.Rand.create ~seed:1L () in
  (* deriving again after the root advanced gives the same stream *)
  let a = Sim.Rand.derive root 5 in
  let x = Sim.Rand.bits a 30 in
  let (_ : int) = Sim.Rand.bits root 30 in
  let b = Sim.Rand.derive root 5 in
  check Alcotest.int "derive ignores root position" x (Sim.Rand.bits b 30)

let test_counting () =
  let c = Sim.Rand.Counter.create () in
  let r = Sim.Rand.create ~counter:c ~seed:3L () in
  let (_ : int) = Sim.Rand.bit r in
  let (_ : int) = Sim.Rand.bits r 10 in
  check Alcotest.int "calls" 2 (Sim.Rand.Counter.calls c);
  check Alcotest.int "bits" 11 (Sim.Rand.Counter.bits c);
  let d = Sim.Rand.derive r 4 in
  let (_ : int) = Sim.Rand.bit d in
  check Alcotest.int "derived stream shares counter" 3
    (Sim.Rand.Counter.calls c);
  Sim.Rand.Counter.reset c;
  check Alcotest.int "reset" 0 (Sim.Rand.Counter.calls c)

let test_private_counter () =
  let a = Sim.Rand.create ~seed:1L () in
  let (_ : int) = Sim.Rand.bit a in
  check Alcotest.int "private counter counts" 1
    (Sim.Rand.Counter.calls (Sim.Rand.counter a))

let test_int_below_rejection_bits () =
  (* m = 5 needs k = 3 bits per attempt and rejects 3 of 8 raw values, so
     over many calls the counted bits must strictly exceed the old
     per-call charge of k — the re-draws are real randomness spent. *)
  let c = Sim.Rand.Counter.create () in
  let r = Sim.Rand.create ~counter:c ~seed:9L () in
  let calls = 2_000 in
  for _ = 1 to calls do
    ignore (Sim.Rand.int_below r 5)
  done;
  let k = 3 in
  Alcotest.(check int) "one call per int_below" calls
    (Sim.Rand.Counter.calls c);
  Alcotest.(check bool)
    (Printf.sprintf "bits %d > old per-call charge %d"
       (Sim.Rand.Counter.bits c) (calls * k))
    true
    (Sim.Rand.Counter.bits c > calls * k);
  (* bits are charged in whole attempts: k bits per draw, >= 1 draw/call *)
  Alcotest.(check int) "bits are a multiple of k" 0
    (Sim.Rand.Counter.bits c mod k);
  (* acceptance probability is 5/8, so attempts/call averages 8/5 = 1.6 *)
  let attempts = Sim.Rand.Counter.bits c / k in
  let per_call = float_of_int attempts /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "mean attempts/call %.2f near 1.6" per_call)
    true
    (per_call > 1.45 && per_call < 1.75)

let test_int_below_exact_power_of_two_bits () =
  (* a power-of-two bound never rejects: exactly k bits per call *)
  let c = Sim.Rand.Counter.create () in
  let r = Sim.Rand.create ~counter:c ~seed:9L () in
  for _ = 1 to 500 do
    ignore (Sim.Rand.int_below r 8)
  done;
  Alcotest.(check int) "exactly 3 bits per call" (500 * 3)
    (Sim.Rand.Counter.bits c)

let test_bit_balance () =
  let r = Sim.Rand.create ~seed:11L () in
  let ones = ref 0 in
  let trials = 10_000 in
  for _ = 1 to trials do
    ones := !ones + Sim.Rand.bit r
  done;
  let frac = float_of_int !ones /. float_of_int trials in
  Alcotest.(check bool) "fair coin" true (frac > 0.47 && frac < 0.53)

let test_int_below_range =
  QCheck.Test.make ~name:"int_below in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, m) ->
      let r = Sim.Rand.create ~seed:(Int64.of_int seed) () in
      let v = Sim.Rand.int_below r m in
      v >= 0 && v < m)

let test_int_below_uniform () =
  let r = Sim.Rand.create ~seed:5L () in
  let counts = Array.make 10 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let v = Sim.Rand.int_below r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "each bucket near 10%" true (c > 1700 && c < 2300))
    counts

let test_bits_bounds =
  QCheck.Test.make ~name:"bits k within [0, 2^k)" ~count:500
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, k) ->
      let r = Sim.Rand.create ~seed:(Int64.of_int seed) () in
      let v = Sim.Rand.bits r k in
      v >= 0 && v < 1 lsl k)

let test_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, len) ->
      let r = Sim.Rand.create ~seed:(Int64.of_int seed) () in
      let a = Array.init len (fun i -> i) in
      Sim.Rand.shuffle r a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init len (fun i -> i))

let test_float_range () =
  let r = Sim.Rand.create ~seed:2L () in
  for _ = 1 to 1000 do
    let f = Sim.Rand.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.)
  done

let test_bits_invalid () =
  let r = Sim.Rand.create ~seed:1L () in
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Rand.bits: k must be in [1, 62]") (fun () ->
      ignore (Sim.Rand.bits r 0));
  Alcotest.check_raises "k=63 rejected"
    (Invalid_argument "Rand.bits: k must be in [1, 62]") (fun () ->
      ignore (Sim.Rand.bits r 63))

let test_int_below_invalid () =
  let r = Sim.Rand.create ~seed:1L () in
  Alcotest.check_raises "m=0 rejected"
    (Invalid_argument "Rand.int_below: bound must be positive") (fun () ->
      ignore (Sim.Rand.int_below r 0))

(* The engine reseeds a stream and draws from it in every step, so no
   call may allocate: the stream's words are read and written in place.
   The only words allowed are the two boxed [Gc.minor_words] readings. *)
let test_no_allocation () =
  let root = Sim.Rand.create ~seed:13L () in
  let r = Sim.Rand.derive root 0 in
  let sink = ref 0 in
  let check_flat what f =
    f 0;
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      f i
    done;
    let grown = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f minor words over 10000 calls" what grown)
      true (grown <= 8.)
  in
  check_flat "derive_into" (fun i -> Sim.Rand.derive_into ~into:r root i);
  check_flat "bit" (fun _ -> sink := !sink + Sim.Rand.bit r);
  check_flat "bits" (fun _ -> sink := !sink + Sim.Rand.bits r 20);
  check_flat "int_below" (fun i -> sink := !sink + Sim.Rand.int_below r (i + 1));
  check_flat "chance" (fun _ -> if Sim.Rand.chance r 0.5 then incr sink);
  ignore (Sys.opaque_identity !sink)

(* [chance t p] is [float t < p]: on two streams with one seed, every
   draw lands the same way and leaves the same counter values. *)
let test_chance_is_float_lt =
  QCheck.Test.make ~name:"chance = float <" ~count:200
    QCheck.(pair small_nat (float_range 0. 1.))
    (fun (seed, p) ->
      let a = Sim.Rand.create ~seed:(Int64.of_int seed) () in
      let b = Sim.Rand.create ~seed:(Int64.of_int seed) () in
      let counted r =
        let c = Sim.Rand.counter r in
        (Sim.Rand.Counter.calls c, Sim.Rand.Counter.bits c)
      in
      List.for_all
        (fun _ ->
          let x = Sim.Rand.chance a p in
          let y = Sim.Rand.float b < p in
          x = y && counted a = counted b)
        (List.init 100 Fun.id))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "derive independence" `Quick test_derive_independent;
    Alcotest.test_case "derive stability" `Quick test_derive_stable;
    Alcotest.test_case "counting" `Quick test_counting;
    Alcotest.test_case "private counter" `Quick test_private_counter;
    Alcotest.test_case "bit balance" `Quick test_bit_balance;
    Alcotest.test_case "int_below charges rejection re-draws" `Quick
      test_int_below_rejection_bits;
    Alcotest.test_case "int_below power-of-two bound charges exactly k" `Quick
      test_int_below_exact_power_of_two_bits;
    Alcotest.test_case "int_below uniform" `Quick test_int_below_uniform;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bits invalid args" `Quick test_bits_invalid;
    Alcotest.test_case "int_below invalid args" `Quick test_int_below_invalid;
    Alcotest.test_case "draws and reseeds allocate nothing" `Quick
      test_no_allocation;
    QCheck_alcotest.to_alcotest test_int_below_range;
    QCheck_alcotest.to_alcotest test_bits_bounds;
    QCheck_alcotest.to_alcotest test_shuffle_permutation;
    QCheck_alcotest.to_alcotest test_chance_is_float_lt;
  ]
