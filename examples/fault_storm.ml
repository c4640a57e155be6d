(** Fault storm: drive Algorithm 1 through every adversary in the library
    at the maximum tolerated fault budget and watch the operative/
    inoperative partition do its job (Lemma 7: at least n - 3t processes
    stay operative, no matter what).

    Run with: dune exec examples/fault_storm.exe *)

let min_operative = ref max_int

(* Piggyback on the adversary hook to observe the operative set each round
   (the view is the full-information snapshot the adversary gets). *)
let with_probe (adv : Sim.Adversary_intf.t) =
  {
    Sim.Adversary_intf.name = adv.name;
    create =
      (fun cfg rand ->
        let inner = adv.create cfg rand in
        fun view ->
          let ops =
            Array.fold_left
              (fun a o -> if o.Sim.View.core.operative then a + 1 else a)
              0 view.Sim.View.obs
          in
          if ops < !min_operative then min_operative := ops;
          inner view);
  }

let () =
  let n = 120 in
  let t = (n / 31) in
  Fmt.pr "n = %d, t = %d (paper bound: >= n - 3t = %d operative)@.@." n t
    (n - (3 * t));
  List.iter
    (fun adv ->
      min_operative := max_int;
      let cfg = Sim.Config.make ~n ~t_max:t ~seed:99 ~max_rounds:3000 () in
      let protocol = Consensus.Optimal_omissions.protocol_buffered cfg in
      let inputs = Array.init n (fun i -> (i / 5) mod 2) in
      let o = Sim.Engine.run protocol cfg ~adversary:(with_probe adv) ~inputs in
      let verdict =
        match Sim.Engine.agreed_decision o with
        | Some v -> Printf.sprintf "agreed on %d" v
        | None -> "FAILED"
      in
      Fmt.pr "%-26s rounds=%-5d faults=%-3d omitted=%-6d min-operative=%d  %s@."
        adv.Sim.Adversary_intf.name o.rounds_total o.faults_used
        o.messages_omitted !min_operative verdict)
    (List.map Adversary.resolve (Adversary.standard_suite ~n)
    @ [ Adversary.eclipse ~victim:7 ]);
  Fmt.pr "@.every storm weathered: agreement held throughout@."
