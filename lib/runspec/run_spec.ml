(* One canonical record per run, one canonical string per record. The
   string is the API: the CLI accepts it (--spec), replay one-liners
   print it, and the cache addresses results by it. Keep the field
   order and spellings frozen — changing either invalidates every
   existing cache, since Cache.fingerprint digests this file. *)

type t = {
  protocol : string;
  n : int;
  t_max : int;
  x : int option;
  seed : int;
  adversary : string;
  inputs : string;
  net : Net.Spec.t option;
  budget : Supervise.Budget.t;
}

(* --- input-pattern spelling table (the adversary's is
   [Adversary.names]; both are the run subcommand's historical
   vocabulary, now shared by every surface) --- *)

let inputs_table =
  [
    ("mixed", fun ~n ~seed:_ -> Array.init n (fun i -> i mod 2));
    ("ones", fun ~n ~seed:_ -> Array.make n 1);
    ("zeros", fun ~n ~seed:_ -> Array.make n 0);
    ( "random",
      fun ~n ~seed ->
        let rand = Sim.Rand.create ~seed:(Int64.of_int (seed + 99)) () in
        Array.init n (fun _ -> Sim.Rand.bit rand) );
  ]

(* One run, one canonical string (and cache key): [p=param x=K] builds the
   registry's [param-xK], so it takes the registry id, and a term takes
   its printed spelling. An out-of-range x or an unknown spelling stays
   for [validate] to reject. *)
let canonical spec =
  let id = Printf.sprintf "param-x%d" (Option.value spec.x ~default:0) in
  let spec =
    match spec.x with
    | Some x when spec.protocol = "param" && x >= 1 && x <= spec.n
                  && List.mem id (Harness.Registry.ids ()) ->
        { spec with protocol = id; x = None }
    | Some _ | None -> spec
  in
  match Adversary.canonical spec.adversary with
  | Some adversary -> { spec with adversary }
  | None -> spec

let make ?x ?(adversary = "none") ?(inputs = "mixed") ?net
    ?(budget = Supervise.Budget.unlimited) ~protocol ~n ~t_max ~seed () =
  canonical { protocol; n; t_max; x; seed; adversary; inputs; net; budget }

let adversary spec = Adversary.resolve spec.adversary

let inputs spec =
  let s = spec.inputs in
  match List.assoc_opt s inputs_table with
  | Some f -> f ~n:spec.n ~seed:spec.seed
  | None when String.length s = spec.n && String.for_all (String.contains "01") s ->
      Array.init spec.n (fun i -> Char.code s.[i] - Char.code '0')
  | None ->
      Printf.ksprintf invalid_arg "unknown inputs %S; one of %s, or %d bits" s
        (String.concat ", " (List.map fst inputs_table))
        spec.n

(* --- canonical serialization --- *)

let opt_i = function None -> "-" | Some v -> string_of_int v

let to_string spec =
  (* net last: Net.Spec.to_string never contains spaces, but keeping the
     only compound token at the end makes the format trivially
     extensible *)
  Printf.sprintf "p=%s n=%d t=%d x=%s seed=%d a=%s i=%s wall=%s rounds=%s \
                  msgs=%s rand=%s net=%s"
    spec.protocol spec.n spec.t_max (opt_i spec.x) spec.seed spec.adversary
    spec.inputs
    (match spec.budget.Supervise.Budget.wall_s with
    | None -> "-"
    | Some w -> Printf.sprintf "%h" w)
    (opt_i spec.budget.Supervise.Budget.max_rounds)
    (opt_i spec.budget.Supervise.Budget.max_messages)
    (opt_i spec.budget.Supervise.Budget.max_rand_bits)
    (match spec.net with None -> "-" | Some s -> Net.Spec.to_string s)

(* The one validity check for a spec, whichever surface assembled it: a
   spec that passes runs with exactly the meaning its string states, and
   one run has one canonical string. *)
let validate spec =
  let fail fmt = Printf.ksprintf (fun m -> Error ("run spec: " ^ m)) fmt in
  let positive name = function
    | Some v when v < 1 ->
        fail "%s budget must be a positive integer, not %d" name v
    | Some _ | None -> Ok ()
  in
  let ( let* ) = Result.bind in
  let* () =
    if spec.n < 1 then fail "n must be >= 1, not %d" spec.n else Ok ()
  in
  let* () =
    if spec.t_max < 0 || spec.t_max >= spec.n then
      fail "t must be in [0, n) = [0, %d), not %d" spec.n spec.t_max
    else Ok ()
  in
  let* () =
    match
      ignore (adversary spec);
      ignore (inputs spec)
    with
    | () -> Ok ()
    | exception Invalid_argument m -> fail "%s" m
  in
  let* () =
    match (spec.protocol = "param", spec.x) with
    | true, Some x when x < 1 || x > spec.n ->
        fail "x must be in [1, n] = [1, %d], not %d" spec.n x
    | true, Some _ | false, None -> Ok ()
    | true, None -> fail "param needs x in [1, n]"
    | false, Some x -> fail "x=%d given, but only param takes x (use x=-)" x
  in
  let b = spec.budget in
  let* () =
    match b.Supervise.Budget.wall_s with
    | Some w when not (Float.is_finite w && w > 0.) ->
        fail "wall budget must be a finite positive number of seconds, not %g" w
    | Some _ | None -> Ok ()
  in
  let* () = positive "rounds" b.Supervise.Budget.max_rounds in
  let* () = positive "msgs" b.Supervise.Budget.max_messages in
  let* () = positive "rand" b.Supervise.Budget.max_rand_bits in
  Ok spec

let digest spec = Digest.to_hex (Digest.string (to_string spec))

let to_command spec =
  Printf.sprintf "dune exec bin/consensus_sim.exe -- run --spec '%s'"
    (to_string spec)

let of_string s =
  let ( let* ) = Result.bind in
  let field name tok =
    let pre = name ^ "=" in
    let pl = String.length pre in
    if String.length tok >= pl && String.sub tok 0 pl = pre then
      Ok (String.sub tok pl (String.length tok - pl))
    else Error (Printf.sprintf "run spec: expected %s=..., got %S" name tok)
  in
  let int name v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "run spec: %s must be an integer, not %S" name v)
  in
  let opt_int name = function
    | "-" -> Ok None
    | v -> Result.map Option.some (int name v)
  in
  match String.split_on_char ' ' (String.trim s) with
  | [ tp; tn; tt; tx; tseed; ta; ti; twall; trounds; tmsgs; trand; tnet ] ->
      let* protocol = field "p" tp in
      let* n = Result.bind (field "n" tn) (int "n") in
      let* t_max = Result.bind (field "t" tt) (int "t") in
      let* x = Result.bind (field "x" tx) (opt_int "x") in
      let* seed = Result.bind (field "seed" tseed) (int "seed") in
      let* adversary = field "a" ta in
      let* inputs = field "i" ti in
      let* wall =
        Result.bind (field "wall" twall) (function
          | "-" -> Ok None
          | v -> (
              match float_of_string_opt v with
              | Some f -> Ok (Some f)
              | None -> Error (Printf.sprintf "run spec: wall must be a float, not %S" v)))
      in
      let* rounds = Result.bind (field "rounds" trounds) (opt_int "rounds") in
      let* msgs = Result.bind (field "msgs" tmsgs) (opt_int "msgs") in
      let* rand = Result.bind (field "rand" trand) (opt_int "rand") in
      let* net =
        Result.bind (field "net" tnet) (function
          | "-" -> Ok None
          | v -> Result.map Option.some (Net.Spec.of_string v))
      in
      validate
        @@ canonical
        {
          protocol;
          n;
          t_max;
          x;
          seed;
          adversary;
          inputs;
          net;
          budget =
            {
              Supervise.Budget.wall_s = wall;
              max_rounds = rounds;
              max_messages = msgs;
              max_rand_bits = rand;
            };
        }
  | _ ->
      Error
        "run spec: expected 12 space-separated k=v tokens \
         (p n t x seed a i wall rounds msgs rand net)"

(* --- resolution and execution --- *)

let resolve spec =
  let ( let* ) = Result.bind in
  let* spec = validate spec in
  (* validated: x is present exactly when the protocol is param *)
  match spec.x with
  | Some x -> Ok (Consensus.Param_omissions.builder ~x ())
  | None -> (
      match Harness.Registry.find spec.protocol with
      | Ok e -> Ok e.Harness.Registry.builder
      | Error msg -> Error (msg ^ " (plus \"param\", which takes x)"))

let config spec builder =
  let module B = (val builder : Sim.Protocol_intf.BUILDER) in
  let cfg0 = Sim.Config.make ~n:spec.n ~t_max:spec.t_max ~seed:spec.seed () in
  { cfg0 with Sim.Config.max_rounds = B.rounds_needed cfg0 }

let supervise ?trace ?store ~property builder spec =
  let module B = (val builder : Sim.Protocol_intf.BUILDER) in
  let cfg = config spec builder in
  Supervise.run ?trace ~budget:spec.budget ?net:spec.net
    ?cache:(Option.map (fun st -> (st, to_string spec)) store)
    ~property (B.build cfg) cfg ~adversary:(adversary spec)
    ~inputs:(inputs spec)

let execute ?trace ?store spec =
  match resolve spec with
  | Error msg -> invalid_arg ("Run_spec.execute: " ^ msg)
  | Ok builder ->
      (* param, the one protocol outside the registry, is a consensus *)
      let property =
        Result.fold (Harness.Registry.find spec.protocol)
          ~ok:(fun e -> e.Harness.Registry.kind)
          ~error:(fun _ -> Supervise.Oracle.Consensus)
      in
      supervise ?trace ?store ~property builder spec

module Cli = struct
  type budget_flags = { wall : float; rounds : int; msgs : int; rand : int }

  let budget_of_flags b =
    let posf v = if v <= 0. then None else Some v in
    let posi v = if v <= 0 then None else Some v in
    {
      Supervise.Budget.wall_s = posf b.wall;
      max_rounds = posi b.rounds;
      max_messages = posi b.msgs;
      max_rand_bits = posi b.rand;
    }

  let net_or_die s =
    match Net.Spec.of_string s with
    | Ok spec -> spec
    | Error m ->
        Fmt.epr "%s@." m;
        Stdlib.exit 2

  let store_of_flags ?fingerprint ~resume ~json ~cache ~no_cache () =
    if resume && json = None then begin
      Fmt.epr "--resume needs --json FILE (its cache is FILE.cache)@.";
      Stdlib.exit 2
    end;
    let dir =
      match json with
      | Some j when cache = "" && resume -> j ^ ".cache"
      | _ -> cache
    in
    if no_cache || dir = "" then None
    else Some (Cache.Store.open_ ?fingerprint ~dir ())

  let adversary_names = Adversary.names
  let inputs_names = List.map fst inputs_table
end
