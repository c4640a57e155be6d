(** First-class-module registry of every {!Sim.Protocol_intf.BUFFERED}
    implementation in [lib/consensus], with the metadata the differential
    conformance runner needs: which fault model the protocol is specified
    against, the largest budget it tolerates, and the conformance kind
    (consensus vs. source broadcast). Construction and schedule sizing go
    through each protocol's {!Sim.Protocol_intf.BUILDER}. *)

type model = Crash | Omission

type kind =
  | Consensus
      (** agreement + weak validity + termination among non-faulty *)
  | Broadcast of { source : int }
      (** decisions are the source's bit or the default 0; full delivery is
          only guaranteed while the source stays operative *)

type entry = {
  id : string;  (** the builder's [name] *)
  model : model;
  kind : kind;
  max_t : int -> int;  (** n -> largest tolerated fault budget *)
  min_n : int;  (** smallest supported system size *)
  builder : Sim.Protocol_intf.builder;
}

let pp_model ppf m =
  Fmt.string ppf (match m with Crash -> "crash" | Omission -> "omission")

let make ~model ~kind ~max_t ~min_n builder =
  let module B = (val builder : Sim.Protocol_intf.BUILDER) in
  { id = B.name; model; kind; max_t; min_n; builder }

let build e cfg =
  let module B = (val e.builder : Sim.Protocol_intf.BUILDER) in
  B.build cfg

let rounds_bound e cfg =
  let module B = (val e.builder : Sim.Protocol_intf.BUILDER) in
  B.rounds_needed cfg

let all : entry list =
  [
    make ~model:Crash ~kind:Consensus
      ~max_t:(fun n -> n / 3)
      ~min_n:2 Consensus.Flood.builder;
    make ~model:Crash ~kind:Consensus
      ~max_t:(fun n -> n / 4)
      ~min_n:2 Consensus.Early_stopping.builder;
    make ~model:Crash ~kind:Consensus
      ~max_t:(fun n -> n / 8)
      ~min_n:2 (Consensus.Bjbo.builder ());
    make ~model:Crash ~kind:Consensus
      ~max_t:(fun n -> n / 31)
      ~min_n:4 (Consensus.Crash_subquadratic.builder ());
    make ~model:Omission ~kind:Consensus
      ~max_t:(fun n -> n / 4)
      ~min_n:2 Consensus.Dolev_strong.builder;
    make ~model:Omission ~kind:Consensus
      ~max_t:(fun n -> (n - 1) / 6)
      ~min_n:2 Consensus.Phase_king.builder;
    make ~model:Omission ~kind:Consensus
      ~max_t:(fun n -> n / 31)
      ~min_n:4 (Consensus.Optimal_omissions.builder ());
    make ~model:Omission ~kind:Consensus
      ~max_t:(fun n -> n / 61)
      ~min_n:8 (Consensus.Param_omissions.builder ~x:2 ());
    make ~model:Omission
      ~kind:(Broadcast { source = 0 })
      ~max_t:(fun n -> n / 8)
      ~min_n:4 (Consensus.Operative_broadcast.builder ~source:0 ());
  ]

let ids () = List.map (fun e -> e.id) all

let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown protocol %S; registered: %s" id
           (String.concat ", " (ids ())))

(** Protocols whose guarantees cover [scenario]: the system is large
    enough, and the strategy stays inside the protocol's fault model. The
    budget is clamped to the entry's tolerance by the runner. *)
let in_model entry (s : Scenario.t) =
  s.Scenario.n >= entry.min_n
  && (entry.model = Omission || Strategy.crash_compatible s.Scenario.strategy)
