(** A replicated-ledger commit loop — the application the paper's
    introduction motivates ("distributed ledger implementations and
    distributed database applications based on consensus").

    A cluster of n replicas receives a stream of proposed blocks. For each
    block, replicas vote 1 (commit) or 0 (abort) based on local validation
    — here, a deterministic per-replica check that disagrees across
    replicas for some blocks — and run one consensus instance per block
    under a fresh omission adversary. The ledger is the sequence of agreed
    decisions; the example checks that all replicas end with identical
    ledgers no matter what the adversary did.

    Run with: dune exec examples/ledger_commit.exe *)

type block = { height : int; payload : string }

let blocks =
  [
    { height = 1; payload = "alice->bob:10" };
    { height = 2; payload = "bob->carol:7" };
    { height = 3; payload = "carol->dave:999999" (* suspicious *) };
    { height = 4; payload = "dave->erin:3" };
    { height = 5; payload = "erin->alice:1" };
  ]

(* Local validation: only a third of the replicas accept the suspicious
   block, so consensus deterministically aborts it; the rest are accepted
   unanimously. *)
let validate ~replica block =
  if String.length block.payload >= 18 then if replica mod 3 = 0 then 1 else 0
  else 1

let adversary_for_height = function
  | 1 -> Adversary.none
  | 2 -> Adversary.random_omission ~p_omit:0.8
  | 3 -> Adversary.vote_splitter ()
  | 4 -> Adversary.group_killer ()
  | _ -> Adversary.staggered_crash ~per_round:2

let () =
  let n = 64 in
  let ledger = ref [] in
  List.iter
    (fun block ->
      let cfg =
        Sim.Config.make ~n ~t_max:(n / 31) ~seed:(1000 + block.height)
          ~max_rounds:2000 ()
      in
      let protocol = Consensus.Optimal_omissions.protocol_buffered cfg in
      let inputs = Array.init n (fun replica -> validate ~replica block) in
      let adversary = adversary_for_height block.height in
      let o = Sim.Engine.run protocol cfg ~adversary ~inputs in
      match Sim.Engine.agreed_decision o with
      | Some 1 ->
          ledger := block :: !ledger;
          Fmt.pr "height %d: COMMIT %-22s (%d rounds, adversary %s)@."
            block.height block.payload o.rounds_total
            adversary.Sim.Adversary_intf.name
      | Some _ ->
          Fmt.pr "height %d: ABORT  %-22s (%d rounds, adversary %s)@."
            block.height block.payload o.rounds_total
            adversary.Sim.Adversary_intf.name
      | None -> failwith "ledger diverged: consensus violated")
    blocks;
  Fmt.pr "@.final ledger: %d blocks committed, identical on every replica@."
    (List.length !ledger)
