(** Persistent content-addressed result store.

    A store memoizes pure computations: the key is the canonical
    serialization of everything that determines the result (a
    {!Run_spec.t} string for protocol runs, an experiment-specific
    string for bench points), combined with a code fingerprint so an
    engine change can never surface a stale payload.

    On-disk layout under the store directory:

    {v
    <dir>/index            append-only "hexdigest TAB size" lines
    <dir>/objects/<hex>    one payload file per entry
    v}

    Crash safety: the payload file is written to a temporary name and
    renamed into place {e before} its index line is appended and
    flushed, so a torn write leaves at worst an unreachable object or a
    truncated index line — both skipped (and counted) on the next open,
    costing one recompute, not a crash. Since every entry is written
    the moment its task completes, the store is also the checkpoint
    an interrupted campaign resumes from. *)

val fingerprint : string
(** Code fingerprint mixed into every digest. Bump whenever the engine
    or a protocol changes semantics: every existing entry silently
    becomes a miss, which is exactly the invalidation we want. *)

module Stats : sig
  type t = { mutable hits : int; mutable misses : int; mutable writes : int }

  val zero : unit -> t
  val pp : Format.formatter -> t -> unit
end

module Store : sig
  type t

  val open_ : ?fingerprint:string -> dir:string -> unit -> t
  (** Open (creating if needed) the store rooted at [dir]. The index is
      replayed; torn or corrupt lines are skipped and counted. The
      index file stays open in append mode for the store's lifetime;
      there is no truncating mode, because a cache is meant to persist
      across runs. *)

  val digest_key : t -> string -> string
  (** Hex digest of [fingerprint ^ "\x00" ^ key] — the content address
      an entry lives under; exposed so provenance events can name it. *)

  val lookup : t -> decode:(string -> 'a option) -> string -> 'a option
  (** [lookup t ~decode key] reads the stored payload on demand and
      decodes it. A missing, truncated or unreadable object, or a payload
      [decode] rejects (or raises on), drops the entry, counts it as
      corrupt and returns [None], so the next {!add} repairs it. Counts a
      hit only for a decoded payload, a miss otherwise. *)

  val add : t -> key:string -> string -> unit
  (** Store a payload. A key already present is left untouched (first
      write wins — every writer computes the same bytes for the same
      key, so dropping duplicates is sound and keeps concurrent [add]s
      from tearing). Counts a write only when one happens. *)

  val entries : t -> int
  (** Live index entries. *)

  val corrupt : t -> int
  (** Torn/corrupt index lines skipped at open plus payloads dropped by
      {!lookup}. *)

  val stats : t -> Stats.t
  (** A snapshot of the counters (never the live record), so two calls
      can be diffed for per-phase deltas. *)

  val dir : t -> string
  val close : t -> unit
end
