(** Quickstart: reach consensus among 100 processes with mixed inputs while
    an adaptive adversary omission-corrupts the maximum n/31 processes.

    Run with: dune exec examples/quickstart.exe *)

let () =
  let n = 100 in
  (* 1. Configure the system: n processes, fault budget t < n/30, a seed
        (every run is a pure function of it). *)
  let cfg = Sim.Config.make ~n ~t_max:(n / 31) ~seed:2024 ~max_rounds:2000 () in

  (* 2. Instantiate the paper's Algorithm 1. All processes deterministically
        agree on the sqrt-decomposition, binary aggregation trees and the
        Theorem-4 expander from (n, seed) — no setup communication. *)
  let protocol = Consensus.Optimal_omissions.protocol_buffered cfg in

  (* 3. Pick inputs and an adversary. The vote-splitter is the strongest
        strategy in the library: full-information, adaptive, kills the
        coin-flippers that drift toward agreement. *)
  let inputs = Array.init n (fun i -> i mod 2) in
  let adversary = Adversary.vote_splitter () in

  (* 4. Run. *)
  let o = Sim.Engine.run protocol cfg ~adversary ~inputs in

  (* 5. Inspect the outcome and the three complexity metrics of Table 1. *)
  (match Sim.Engine.agreed_decision o with
  | Some v -> Fmt.pr "consensus reached on %d@." v
  | None -> failwith "consensus failed (this would be a bug)");
  Fmt.pr "rounds        : %d@." o.rounds_total;
  Fmt.pr "communication : %d messages, %d bits@." o.messages_sent o.bits_sent;
  Fmt.pr "randomness    : %d calls, %d bits@." o.rand_calls o.rand_bits;
  Fmt.pr "faults used   : %d/%d, %d messages omitted@." o.faults_used
    cfg.Sim.Config.t_max o.messages_omitted
