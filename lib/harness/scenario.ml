(** A fuzzing scenario: a full, replayable description of one differential
    run — system size, fault budget, root seed, input vector and adversary
    strategy. Serializes to a single shell-safe token
    [n/t/seed/bits/strategy] so a failing case prints as a one-line replay
    command. *)

type t = {
  n : int;
  t_max : int;
  seed : int;
  inputs : int array;  (** length [n], bits *)
  strategy : Adversary.Strategy.t;
}

let make ~n ~t_max ~seed ~inputs ~strategy =
  if Array.length inputs <> n then
    invalid_arg "Scenario.make: inputs length must equal n";
  Array.iter
    (fun b ->
      if b <> 0 && b <> 1 then invalid_arg "Scenario.make: inputs must be bits")
    inputs;
  if n <= 0 then invalid_arg "Scenario.make: n must be positive";
  if t_max < 0 || t_max >= n then
    invalid_arg "Scenario.make: t_max must be in [0, n)";
  { n; t_max; seed; inputs; strategy }

let bits s = String.init s.n (fun i -> if s.inputs.(i) = 1 then '1' else '0')

let to_string s =
  Printf.sprintf "%d/%d/%d/%s/%s" s.n s.t_max s.seed (bits s)
    (Adversary.Strategy.to_string s.strategy)

let pp ppf s = Fmt.string ppf (to_string s)

exception Parse_error of string

let of_string str =
  let fail fmt =
    Printf.ksprintf
      (fun m -> raise (Parse_error (Printf.sprintf "%s in %S" m str)))
      fmt
  in
  match String.split_on_char '/' str with
  | n :: t_max :: seed :: bits :: strategy ->
      let int what v =
        match int_of_string_opt v with
        | Some i -> i
        | None -> fail "bad %s %S" what v
      in
      let n = int "n" n and t_max = int "t" t_max and seed = int "seed" seed in
      if String.length bits <> n then fail "inputs must have length n=%d" n;
      let inputs =
        Array.init n (fun i ->
            match bits.[i] with
            | '0' -> 0
            | '1' -> 1
            | c -> fail "bad input bit %c" c)
      in
      (* the strategy grammar contains no '/', but rejoin defensively *)
      let strategy =
        try Adversary.Strategy.of_string (String.concat "/" strategy)
        with Adversary.Strategy.Parse_error m -> fail "%s" m
      in
      (try make ~n ~t_max ~seed ~inputs ~strategy
       with Invalid_argument m -> fail "%s" m)
  | _ -> fail "expected n/t/seed/bits/strategy"

(* --- generation --- *)

let gen_target rand ~n ~crash =
  let k () = 1 + Sim.Rand.int_below rand (max 1 (n / 4)) in
  match Sim.Rand.int_below rand (if crash then 6 else 7) with
  | 0 ->
      let len = 1 + Sim.Rand.int_below rand 3 in
      Adversary.Strategy.Pids (List.init len (fun _ -> Sim.Rand.int_below rand n))
  | 1 -> Lowest (k ())
  | 2 -> Random (k ())
  | 3 -> Flippers (k ())
  | 4 -> Holders (Sim.Rand.bit rand, k ())
  | 5 -> Majority (k ())
  | _ -> Group (Sim.Rand.int_below rand 3)

let gen_drop rand ~crash =
  if crash then if Sim.Rand.bit rand = 0 then Adversary.Strategy.Out else All
  else
    match Sim.Rand.int_below rand 7 with
    | 0 -> Adversary.Strategy.Out
    | 1 -> In
    | 2 -> All
    | 3 -> Flip (25 * (1 + Sim.Rand.int_below rand 4))
    | 4 -> Half
    | 5 -> ToHolders (Sim.Rand.bit rand)
    | _ -> Intra

(** Random strategy term. [crash] restricts to the crash-compatible
    sub-algebra (tail-position outgoing/total strikes, no [Until]/[Seq]
    de-activation), so the generated term always satisfies
    {!Adversary.Strategy.crash_compatible}. *)
let rec gen_strategy rand ~n ~crash ~depth =
  let strike () =
    Adversary.Strategy.Strike (gen_target rand ~n ~crash, gen_drop rand ~crash)
  in
  (* The vote-splitter archetype (cf. the paper's Lemma 15): corrupt [k]
     holders of bit [b] and deliver their votes only to the [b]-side, so the
     two sides count strictly opposite majorities. Kept as an explicit
     generator case because composing it from uniform parts is rare, and it
     is the canonical attack against majority-threshold protocols. *)
  let splitter () =
    let b = Sim.Rand.bit rand in
    let k = 2 + Sim.Rand.int_below rand 3 in
    Adversary.Strategy.Strike (Holders (b, k), ToHolders (1 - b))
  in
  if depth <= 0 then
    if Sim.Rand.int_below rand 4 = 0 then Adversary.Strategy.Idle else strike ()
  else
    let sub ?(crash = crash) () =
      gen_strategy rand ~n ~crash ~depth:(depth - 1)
    in
    (* crash mode only draws cases 0-7; the rest need the full algebra *)
    match Sim.Rand.int_below rand (if crash then 8 else 12) with
    | 0 -> Adversary.Strategy.Idle
    | 1 | 2 -> strike ()
    | 3 | 4 -> From (1 + Sim.Rand.int_below rand 8, sub ())
    | 5 -> Both (sub (), sub ())
    | 6 | 7 -> Again (sub ())
    | 8 -> Until (1 + Sim.Rand.int_below rand 10, sub ~crash:false ())
    | 10 | 11 -> splitter ()
    | _ ->
        let len = 1 + Sim.Rand.int_below rand 3 in
        (* non-last elements of a Seq stop being active, so in crash mode
           they would break compatibility; here crash is false *)
        Seq (List.init len (fun _ -> sub ~crash:false ()))

let gen_inputs rand n =
  match Sim.Rand.int_below rand 5 with
  | 0 -> Array.make n 0
  | 1 -> Array.make n 1
  | 2 -> Array.init n (fun i -> i mod 2)
  | 3 ->
      let dissent = Sim.Rand.int_below rand n in
      let b = Sim.Rand.bit rand in
      Array.init n (fun i -> if i = dissent then 1 - b else b)
  | _ -> Array.init n (fun _ -> Sim.Rand.bit rand)

(** Generate a scenario from a counted-random stream. [crash_bias] is the
    probability of drawing from the crash-compatible sub-algebra, so the
    crash-model baselines get conformance coverage too. *)
let generate ?(max_n = 40) ?(crash_bias = 0.5) rand =
  let n = 4 + Sim.Rand.int_below rand (max_n - 3) in
  let t_max = Sim.Rand.int_below rand (max 1 (min (n - 1) (1 + (n / 4)))) in
  let seed = 1 + Sim.Rand.int_below rand 1_000_000 in
  let crash = Sim.Rand.chance rand crash_bias in
  let strategy =
    gen_strategy rand ~n ~crash ~depth:(1 + Sim.Rand.int_below rand 3)
  in
  let inputs = gen_inputs rand n in
  make ~n ~t_max ~seed ~inputs ~strategy

(* --- shrinking --- *)

(** Structurally smaller scenarios: shrink the strategy, the fault budget,
    the seed, and the system size (halving, truncating the inputs). Every
    candidate strictly decreases the lexicographic measure
    (n, strategy size, t_max, seed != 1, #ones), so greedy descent
    terminates. *)
let shrink s =
  let candidates = ref [] in
  let add c = candidates := c :: !candidates in
  (* smaller system, inputs truncated, budget clamped *)
  List.iter
    (fun n' ->
      if n' >= 2 && n' < s.n then
        add
          {
            s with
            n = n';
            t_max = min s.t_max (n' - 1);
            inputs = Array.sub s.inputs 0 n';
          })
    [ 4; s.n / 2; s.n - 1 ];
  (* smaller strategy *)
  List.iter
    (fun st -> add { s with strategy = st })
    (Adversary.Strategy.shrink s.strategy);
  (* smaller budget *)
  if s.t_max > 0 then begin
    add { s with t_max = 0 };
    if s.t_max > 1 then add { s with t_max = s.t_max / 2 };
    add { s with t_max = s.t_max - 1 }
  end;
  (* canonical seed *)
  if s.seed <> 1 then add { s with seed = 1 };
  (* all-same inputs *)
  if Array.exists (fun b -> b = 1) s.inputs && Array.exists (fun b -> b = 0) s.inputs
  then begin
    add { s with inputs = Array.make s.n 0 };
    add { s with inputs = Array.make s.n 1 }
  end;
  List.rev !candidates

(** Well-founded measure decreased by shrinking (used to bound the greedy
    descent; [shrink] candidates are not all strictly smaller under it, so
    the minimiser also caps its step count). *)
let measure s =
  (s.n * 1000)
  + (Adversary.Strategy.size s.strategy * 50)
  + (s.t_max * 5)
  + (if s.seed = 1 then 0 else 1)
  + Array.fold_left ( + ) 0 s.inputs
