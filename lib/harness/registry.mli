(** First-class-module registry of every {!Sim.Protocol_intf.BUFFERED}
    implementation in [lib/consensus], with the metadata the differential
    conformance runner needs. To register a new protocol, export a
    {!Sim.Protocol_intf.BUILDER} from its module and add
    [make ~model ~kind ~max_t ~min_n Its.builder] to {!all}; the fuzzer,
    the [fuzz]/[replay]/[run] subcommands and the property-based test suite
    pick it up automatically under the builder's [name]. *)

type model = Crash | Omission

type kind =
  | Consensus
      (** agreement + weak validity + termination among non-faulty *)
  | Broadcast of { source : int }
      (** decisions are the source's bit or the default 0; full delivery is
          only guaranteed while the source stays operative *)

type entry = {
  id : string;  (** the builder's [name] — also the CLI spelling *)
  model : model;
  kind : kind;
  max_t : int -> int;  (** n -> largest tolerated fault budget *)
  min_n : int;  (** smallest supported system size *)
  builder : Sim.Protocol_intf.builder;
}

val make :
  model:model ->
  kind:kind ->
  max_t:(int -> int) ->
  min_n:int ->
  Sim.Protocol_intf.builder ->
  entry
(** The only way entries are formed: the id is the builder's [name]. *)

val build : entry -> Sim.Config.t -> Sim.Protocol_intf.buffered
(** Instantiate the entry's protocol for a configuration. *)

val rounds_bound : entry -> Sim.Config.t -> int
(** Schedule length to use as [max_rounds]; termination is expected within
    it. *)

val pp_model : Format.formatter -> model -> unit
val all : entry list
val find : string -> (entry, string) result
(** Look up a protocol by registry id. [Error] carries a one-line
    message naming the id and listing every registered protocol, ready
    to print. *)

val ids : unit -> string list

val in_model : entry -> Scenario.t -> bool
(** Whether the protocol's guarantees cover the scenario (size fits and the
    strategy stays inside its fault model); out-of-model runs are still
    executed for engine-invariant checking but their decisions are not held
    to the consensus properties. *)
