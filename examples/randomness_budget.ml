(** Spending a randomness budget — Theorem 3 in action.

    A deployment has a limited entropy source (e.g. a slow hardware RNG or
    an expensive verifiable-randomness beacon) and wants consensus using at
    most R random bits. Algorithm 4 trades time for randomness: splitting
    the n processes into x super-processes costs ~x (n/x)^{3/2} random bits
    and ~x sqrt(n/x) rounds. This example sweeps x, measures both, and
    shows the T x R ~ n^2 invariant of Table 1 (row Thm 3).

    Run with: dune exec examples/randomness_budget.exe *)

let () =
  let n = 144 in
  Fmt.pr "n = %d, t = %d, inputs split 50/50, staggered-crash adversary@.@." n
    (n / 61);
  Fmt.pr "%6s %8s %10s %12s %14s@." "x" "rounds" "rand bits" "comm bits"
    "rounds*rand";
  List.iter
    (fun x ->
      let cfg0 = Sim.Config.make ~n ~t_max:(n / 61) ~seed:5 () in
      let max_rounds = Consensus.Param_omissions.rounds_needed ~x cfg0 + 10 in
      let cfg = { cfg0 with Sim.Config.max_rounds } in
      let protocol = Consensus.Param_omissions.protocol_buffered ~x cfg in
      let inputs = Array.init n (fun i -> i mod 2) in
      let o =
        Sim.Engine.run protocol cfg
          ~adversary:(Adversary.staggered_crash ~per_round:1)
          ~inputs
      in
      (match Sim.Engine.agreed_decision o with
      | Some _ -> ()
      | None -> failwith "consensus failed");
      Fmt.pr "%6d %8d %10d %12d %14d@." x o.rounds_total o.rand_bits
        o.bits_sent
        (o.rounds_total * max 1 o.rand_bits))
    [ 1; 2; 4; 8; 16 ];
  Fmt.pr
    "@.Larger x: fewer random bits, more rounds — pick x from your entropy \
     budget.@."
