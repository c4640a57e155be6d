(* Tests for the simulated-authentication layer and Dolev-Strong. *)

let test_sign_verify () =
  let chain = Consensus.Auth.sign ~signer:3 ~payload:1 ~chain:[] in
  Alcotest.(check bool) "single signature valid" true
    (Consensus.Auth.valid_chain ~payload:1 chain);
  Alcotest.(check bool) "wrong payload invalid" false
    (Consensus.Auth.valid_chain ~payload:0 chain);
  Alcotest.(check int) "origin" 3
    (Consensus.Auth.origin chain)

let test_chain_growth () =
  let c1 = Consensus.Auth.sign ~signer:0 ~payload:1 ~chain:[] in
  let c2 = Consensus.Auth.sign ~signer:5 ~payload:1 ~chain:c1 in
  let c3 = Consensus.Auth.sign ~signer:9 ~payload:1 ~chain:c2 in
  Alcotest.(check int) "length" 3 (Consensus.Auth.length c3);
  Alcotest.(check bool) "full chain valid" true
    (Consensus.Auth.valid_chain ~payload:1 c3);
  Alcotest.(check int) "origin preserved" 0
    (Consensus.Auth.origin c3);
  Alcotest.(check (list int)) "signers newest-first" [ 9; 5; 0 ]
    (List.map Consensus.Auth.signer c3)

let test_duplicate_signer_rejected () =
  let c1 = Consensus.Auth.sign ~signer:0 ~payload:1 ~chain:[] in
  let c2 = Consensus.Auth.sign ~signer:0 ~payload:1 ~chain:c1 in
  Alcotest.(check bool) "duplicate signer invalid" false
    (Consensus.Auth.valid_chain ~payload:1 c2)

let test_truncation_rejected () =
  (* dropping the origin's signature invalidates the chain *)
  let c1 = Consensus.Auth.sign ~signer:0 ~payload:1 ~chain:[] in
  let c2 = Consensus.Auth.sign ~signer:5 ~payload:1 ~chain:c1 in
  let truncated = [ List.hd c2 ] in
  Alcotest.(check bool) "truncated chain invalid" false
    (Consensus.Auth.valid_chain ~payload:1 truncated)

let test_splice_rejected () =
  (* re-parenting a signature onto a different prefix invalidates it *)
  let a = Consensus.Auth.sign ~signer:0 ~payload:1 ~chain:[] in
  let b = Consensus.Auth.sign ~signer:1 ~payload:1 ~chain:[] in
  let spliced = List.hd (Consensus.Auth.sign ~signer:2 ~payload:1 ~chain:a) :: b in
  Alcotest.(check bool) "spliced chain invalid" false
    (Consensus.Auth.valid_chain ~payload:1 spliced)

let test_bits_positive () =
  let c = Consensus.Auth.sign ~signer:0 ~payload:1 ~chain:[] in
  Alcotest.(check bool) "chain bits grow" true
    (Consensus.Auth.bits c > 0
    && Consensus.Auth.bits (Consensus.Auth.sign ~signer:1 ~payload:1 ~chain:c)
       > Consensus.Auth.bits c)

(* Today's verifier before chains kept what they were signed over: each
   link's digest recomputed over its whole suffix, signers distinct, the
   origin the last link's signer. The chain checks must give the same
   verdicts on chains made by [sign] (honest relays, repeated signers,
   links signed over other payloads), on random splices and truncations
   of them, and for a wrong payload. *)
module Reference = struct
  module A = Consensus.Auth

  let digest_of ~signer ~payload ~prefix =
    Hashtbl.hash
      (signer, payload, List.map (fun s -> (A.signer s, A.digest s)) prefix)

  let valid_chain ~payload chain =
    let rec go seen = function
      | [] -> true
      | s :: rest ->
          (not (List.mem (A.signer s) seen))
          && A.digest s = digest_of ~signer:(A.signer s) ~payload ~prefix:rest
          && go (A.signer s :: seen) rest
    in
    go [] chain

  let origin chain =
    match List.rev chain with [] -> -1 | s :: _ -> A.signer s
end

(* A chain made by [sign]: (signer, payload) per link, oldest first. *)
let signed links =
  List.fold_left
    (fun chain (signer, payload) -> Consensus.Auth.sign ~signer ~payload ~chain)
    [] links

let links_gen =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (pair (int_range 0 7) (frequency [ (5, return 1); (1, return 0) ])))

(* Splice: the first [k] links of [a] on top of the last links of [b];
   truncation: keep the links [drop] past, up to [keep] of them. *)
let mangle_gen =
  QCheck.Gen.(
    oneof
      [
        return `Plain;
        map2 (fun b k -> `Splice (b, k)) links_gen (int_range 0 6);
        map2 (fun d k -> `Truncate (d, k)) (int_range 0 6) (int_range 0 6);
      ])

let mangled chain = function
  | `Plain -> chain
  | `Splice (b, k) ->
      List.filteri (fun i _ -> i < k) chain @ signed b
  | `Truncate (drop, keep) ->
      List.filteri (fun i _ -> i >= drop && i < drop + keep) chain

let qcheck_chain_checks =
  QCheck.Test.make ~name:"valid_chain, origin, signed_by = reference"
    ~count:2000
    QCheck.(
      make
        Gen.(
          quad links_gen mangle_gen (int_range 0 1) (int_range 0 7)))
    (fun (links, how, payload, pid) ->
      let chain = mangled (signed links) how in
      Consensus.Auth.valid_chain ~payload chain
      = Reference.valid_chain ~payload chain
      && Consensus.Auth.origin chain = Reference.origin chain
      && Consensus.Auth.signed_by pid chain
         = List.mem pid (List.map Consensus.Auth.signer chain))

(* --- Dolev-Strong protocol --- *)

let run_ds ?(n = 32) ?(t = 4) ?(seed = 1) ?(adversary = Sim.Adversary_intf.none)
    inputs =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:(t + 5) () in
  Sim.Engine.run (Consensus.Dolev_strong.protocol_buffered cfg) cfg ~adversary ~inputs

let check ~what ~inputs o =
  Alcotest.(check bool) (what ^ ": all decided") true
    (Sim.Engine.all_nonfaulty_decided o);
  match Sim.Engine.agreed_decision o with
  | None -> Alcotest.fail (what ^ ": agreement violated")
  | Some v ->
      Alcotest.(check bool) (what ^ ": weak validity") true
        (Array.exists (fun b -> b = v) inputs);
      v

let test_ds_validity () =
  List.iter
    (fun b ->
      let inputs = Array.make 32 b in
      let o = run_ds inputs in
      Alcotest.(check int) "validity" b (check ~what:"ds" ~inputs o))
    [ 0; 1 ]

let test_ds_rounds () =
  List.iter
    (fun t ->
      let inputs = Array.init 32 (fun i -> i mod 2) in
      let o = run_ds ~t inputs in
      Alcotest.(check (option int))
        (Printf.sprintf "t+2 rounds (t=%d)" t)
        (Some (t + 2)) o.Sim.Engine.decided_round)
    [ 1; 4; 6 ]

let test_ds_adversaries () =
  List.iter
    (fun adversary ->
      let inputs = Array.init 32 (fun i -> (i / 3) mod 2) in
      let o = run_ds ~adversary inputs in
      ignore
        (check ~what:("ds vs " ^ adversary.Sim.Adversary_intf.name) ~inputs o))
    (Adversary.standard_suite ~n:32)

let test_ds_majority () =
  (* with no faults the decision is the true majority *)
  let n = 33 in
  let inputs = Array.init n (fun i -> if i < 20 then 1 else 0) in
  let o = run_ds ~n ~t:3 inputs in
  Alcotest.(check int) "majority wins" 1 (check ~what:"ds-maj" ~inputs o)

let test_ds_deterministic () =
  let inputs = Array.init 32 (fun i -> i mod 2) in
  let o = run_ds inputs in
  Alcotest.(check int) "zero randomness" 0 o.Sim.Engine.rand_calls

let suite =
  [
    Alcotest.test_case "sign/verify" `Quick test_sign_verify;
    Alcotest.test_case "chain growth" `Quick test_chain_growth;
    Alcotest.test_case "duplicate signer rejected" `Quick
      test_duplicate_signer_rejected;
    Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "splice rejected" `Quick test_splice_rejected;
    Alcotest.test_case "signature bits" `Quick test_bits_positive;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xa07 |])
      qcheck_chain_checks;
    Alcotest.test_case "dolev-strong validity" `Quick test_ds_validity;
    Alcotest.test_case "dolev-strong t+2 rounds" `Quick test_ds_rounds;
    Alcotest.test_case "dolev-strong vs adversaries" `Quick
      test_ds_adversaries;
    Alcotest.test_case "dolev-strong majority" `Quick test_ds_majority;
    Alcotest.test_case "dolev-strong deterministic" `Quick
      test_ds_deterministic;
  ]
