(** The JSON-lines record format: one flat JSON object per line.

    Every machine-readable record the simulator writes — bench rows, fuzz
    results, quarantine records, degradation reports — goes through
    {!obj}, and every record it reads back — perf-gate rows, trace
    events — goes through {!read}. Trace events are written by the same
    writer ({!add_obj}, once per event): it writes ints digit by digit
    into the buffer, about twice as fast as a per-event [Printf] table
    writing the same bytes. *)

type v =
  | I of int
  | F of float  (** written [%.17g] (bit-exact); non-finite as [null] *)
  | S of string
      (** written escaped: double quote and backslash are
          backslash-escaped, newline becomes [\\n], other bytes below 0x20
          become [\\u00XX], and every other byte is copied *)
  | B of bool
  | L of v list
  | Null
  | Raw of string  (** pre-rendered JSON, emitted verbatim *)

val schema_version : int
(** Version of the record schemas documented in EXPERIMENTS.md ("JSON
    schema"); bump when a record's shape changes. *)

type fields = (string * v) list

val add_obj : Buffer.t -> fields -> unit
(** Appends the one-line JSON object of the fields, in order, with no
    trailing newline. Keys are escaped as [S] strings are. *)

val obj : fields -> string
(** {!add_obj} into a fresh buffer. *)

val read : string -> fields option
(** Parse one line holding one JSON object (surrounding whitespace
    allowed) into its top-level fields, in order. Strings are unescaped;
    a number is [I] when it is an integer literal that fits an [int]
    (except [-0], read as [F (-0.)]), else [F]; [null] is [Null]. Nested arrays and objects are validated
    and skipped, and kept as [Raw] text. [None] when the line is not
    exactly one well-formed object. *)

val int : fields -> string -> int option
val float : fields -> string -> float option
(** Accepts [I] as well as [F]. *)

val string : fields -> string -> string option
val bool : fields -> string -> bool option
