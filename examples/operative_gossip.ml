(** Operative-partition information exchange (the paper's Section 6
    direction): broadcast one bit from a source to everyone over the
    Theorem-4 expander, under adaptive omission faults, and compare the
    cost with naive quadratic flooding.

    Run with: dune exec examples/operative_gossip.exe *)

let broadcast_cost n adversary seed =
  let cfg = Sim.Config.make ~n ~t_max:(n / 31) ~seed ~max_rounds:200 () in
  let proto = Consensus.Operative_broadcast.protocol_buffered ~source:0 cfg in
  let inputs = Array.init n (fun i -> if i = 0 then 1 else 0) in
  let o = Sim.Engine.run proto cfg ~adversary ~inputs in
  let delivered =
    Array.to_list o.Sim.Engine.decisions
    |> List.mapi (fun pid d -> (pid, d))
    |> List.filter (fun (pid, d) -> (not o.faulty.(pid)) && d = Some 1)
    |> List.length
  in
  (o, delivered)

let () =
  Fmt.pr "source 0 broadcasts bit 1; adaptive omissions at t = n/31@.@.";
  Fmt.pr "%6s %-26s %10s %12s %10s %12s@." "n" "adversary" "rounds" "bits"
    "delivered" "flood n^2(t+1)";
  List.iter
    (fun n ->
      List.iter
        (fun adversary ->
          let o, delivered = broadcast_cost n adversary 7 in
          Fmt.pr "%6d %-26s %10d %12d %7d/%-3d %12d@." n
            adversary.Sim.Adversary_intf.name o.rounds_total o.bits_sent
            delivered
            (n - o.faults_used)
            (n * n * ((n / 31) + 1)))
        [
          Adversary.none;
          Adversary.random_omission ~p_omit:0.8;
          Adversary.staggered_crash ~per_round:1;
        ])
    [ 64; 256; 1024 ];
  Fmt.pr
    "@.the expander gossip delivers to every operative process in O(log n) \
     rounds with\nO(n log^2 n) bits; omission-reliable flooding would pay n^2 \
     messages for t+1 rounds (last column).@."
