(** The Theorem 2 experiment: an adaptive vote-splitting adversary (the
    constructive strategy from Lemmas 13-15, played as a per-round
    coin-flipping game) against the canonical biased-majority voting
    algorithm, measuring the forced product T x (R + T) against the paper's
    Omega(t^2 / log n) bound.

    Varying [coin_set] reproduces the randomness-starved regimes: with only
    k processes allowed to flip coins per round, the adversary needs to hide
    only ~sqrt(k log n) values per round, so the run is stalled for
    ~t / sqrt(k log n) rounds — "why a lot of randomness is needed". *)

type result = {
  n : int;
  t : int;
  coin_set : int;
  rounds : int;  (** T: round by which every live process had decided *)
  rand_calls : int;  (** R: calls to the random source *)
  product : int;  (** T x (R + T) *)
  bound : float;  (** t^2 / log2 n, the Omega shape (constants elided) *)
  decided : bool;
}

let run ?(seed = 1) ?budget ~n ~t ~coin_set () =
  let cfg = Sim.Config.make ~n ~t_max:t ~seed ~max_rounds:(40 * (t + 10)) () in
  let proto = Consensus.Bjbo.protocol_buffered ~coin_set_size:coin_set cfg in
  let inputs = Array.init n (fun i -> i mod 2) in
  let adversary = Adversary.vote_splitter () in
  let o =
    match
      Supervise.run ?budget ~property:Consensus proto cfg ~adversary ~inputs
    with
    | Ok (o, _) -> o
    | Error (kind, _) ->
        raise (Supervise.Breach { kind; trace = []; replay = None })
  in
  let rounds =
    match o.Sim.Engine.decided_round with
    | Some r -> r
    | None -> o.rounds_total
  in
  let product = rounds * (o.rand_calls + rounds) in
  {
    n;
    t;
    coin_set;
    rounds;
    rand_calls = o.rand_calls;
    product;
    bound =
      float_of_int (t * t) /. (log (float_of_int n) /. log 2.);
    decided = o.decided_round <> None;
  }

(** Average over seeds; returns (mean rounds, mean rand_calls, mean
    product). *)
let run_avg ?(seeds = 5) ~n ~t ~coin_set () =
  let rs = ref 0. and rcs = ref 0. and ps = ref 0. in
  for seed = 1 to seeds do
    let r = run ~seed ~n ~t ~coin_set () in
    rs := !rs +. float_of_int r.rounds;
    rcs := !rcs +. float_of_int r.rand_calls;
    ps := !ps +. float_of_int r.product
  done;
  let f x = x /. float_of_int seeds in
  (f !rs, f !rcs, f !ps)
