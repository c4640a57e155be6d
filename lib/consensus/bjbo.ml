(** Biased-majority randomized consensus in the style of Bar-Joseph and
    Ben-Or (PODC'98) — the crash-model baseline of Table 1, row [10], and
    the canonical algorithm the Theorem 2 lower-bound adversary plays
    against.

    Every round each live process broadcasts its candidate bit; counting the
    received bits (own included, N of them) it then applies thresholds with
    margin theta = ceil(sqrt n):
    - count(v) > N/2 + t + theta: decide v (and announce for one round);
    - count(v) > N/2 + theta: lean to v deterministically;
    - otherwise: flip a coin — or, when the process is outside the
      designated coin set, adopt the plain majority.

    The decide margin exceeds any two processes' count divergence (at most
    t under crashes), so no two processes can decide differently; a decided
    value drags every other process above the lean threshold the next
    round, after which unanimity closes the run. An adaptive adversary must
    therefore spend ~theta crashes per round to keep the counts inside the
    coin window — the Theta(t / sqrt n) round-complexity shape of [10].

    [coin_set_size] bounds how many processes may flip coins each round
    (processes with pid < k): the randomness-starved variants measured in
    experiment T1-thm2. With k = n this is the standard algorithm; with
    small k the vote-splitting adversary stalls it for ~t/sqrt(k log n)
    rounds, the paper's T x (R + T) = Omega(t^2 / log n) trade-off.

    This is a *crash-model* protocol (the paper's comparison point): under
    general omissions its guarantees are not claimed. *)

type msg = Vote of { b : int; final : bool }

type state = {
  pid : int;
  n : int;
  t_max : int;
  theta : int;
  coin_eligible : bool;
  mutable b : int;
  mutable decided : int option;
  mutable announced : bool;  (** already broadcast the decision once *)
}

let protocol_buffered ?(coin_set_size = max_int) ?(theta_factor = 0.5)
    (cfg : Sim.Config.t) =
  let module M = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "bjbo"

    let init (cfg : Sim.Config.t) ~pid ~input =
      {
        pid;
        n = cfg.n;
        t_max = cfg.t_max;
        theta =
          max 1
            (int_of_float (ceil (theta_factor *. sqrt (float_of_int cfg.n))));
        coin_eligible = pid < coin_set_size;
        b = input;
        decided = None;
        announced = false;
      }

    let broadcast_into st m ~emit_all =
      emit_all ~lo:0 ~hi:(st.n - 1) ~skip:st.pid ~desc:false m

    let process st ~inbox ~rand =
      (* a decision announcement overrides counting *)
      let final = ref None in
      Sim.Mailbox.iter inbox (fun _src (Vote { b; final = fin }) ->
          if fin && !final = None then final := Some b);
      match !final with
      | Some v ->
          st.b <- v;
          st.decided <- Some v
      | None ->
          let c = [| 0; 0 |] in
          c.(st.b) <- 1;
          Sim.Mailbox.iter inbox (fun _src (Vote { b; _ }) ->
              c.(b) <- c.(b) + 1);
          let total = c.(0) + c.(1) in
          let decide_margin = (total / 2) + st.t_max + st.theta in
          let lean_margin = (total / 2) + st.theta in
          if c.(1) >= decide_margin then begin
            st.b <- 1;
            st.decided <- Some 1
          end
          else if c.(0) >= decide_margin then begin
            st.b <- 0;
            st.decided <- Some 0
          end
          else if c.(1) > lean_margin then st.b <- 1
          else if c.(0) > lean_margin then st.b <- 0
          else if st.coin_eligible then st.b <- Sim.Rand.bit rand
          else st.b <- (if c.(1) >= c.(0) then 1 else 0)

    (* One shared message record per broadcast, ascending destination
       order. *)
    let step_into _cfg st ~round ~inbox ~rand ~emit:_ ~emit_all =
      if round > 1 then if st.decided = None then process st ~inbox ~rand;
      (match st.decided with
      | Some v when not st.announced ->
          st.announced <- true;
          broadcast_into st (Vote { b = v; final = true }) ~emit_all
      | Some _ -> ()
      | None -> broadcast_into st (Vote { b = st.b; final = false }) ~emit_all);
      st

    let observe st =
      {
        Sim.View.candidate = Some st.b;
        operative = true;
        decided = st.decided;
      }

    let msg_bits (Vote _) = 2
    let msg_hint (Vote { b; _ }) = Some b
  end in
  ignore cfg;
  (module M : Sim.Protocol_intf.BUFFERED)

let builder ?coin_set_size ?theta_factor () : Sim.Protocol_intf.builder =
  (module struct
    let name = "bjbo"
    let build cfg = protocol_buffered ?coin_set_size ?theta_factor cfg
    let rounds_needed (cfg : Sim.Config.t) = 60 * (cfg.t_max + 10)
  end)
