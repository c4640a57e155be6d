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

val format_version : string
(** The store's format version, the hand-kept part of {!fingerprint}.
    Bump it when a payload's bytes change (the codec, or what a cached
    result holds), so an old entry misses instead of counting as
    corrupt. *)

val fingerprint : string
(** Code fingerprint mixed into every digest: {!format_version}, ["/"],
    and an MD5 digest, taken at build time, of the [.ml] and [.mli]
    files of every library a cached result depends on ([lib/sim],
    [trace], [groups], [expander], [consensus], [adversary], [net],
    [harness], [stats], [lowerbound], [supervise] and [runspec]). Any
    edit there, a comment included, makes every existing entry a miss;
    nothing needs bumping by hand when the engine, a protocol or a
    lower-bound experiment changes. Code under [bench/] and [bin/] is
    not digested. *)

module Codec = Codec
(** The payload codec every cached result goes through. *)

val ensure_dir : string -> unit
(** [ensure_dir dir] makes directory [dir] and any missing parents. When
    one cannot be made, or a file stands in the way, it prints one line
    naming [dir] to stderr and exits 2. *)

module Stats : sig
  type t = { mutable hits : int; mutable misses : int; mutable writes : int }

  val zero : unit -> t
  val pp : Format.formatter -> t -> unit
end

module Store : sig
  type t

  val open_ : ?fingerprint:string -> dir:string -> unit -> t
  (** Open the store rooted at [dir], making [dir] and any missing
      parents with {!ensure_dir} if needed. The index is
      replayed; torn or corrupt lines are skipped and counted. The
      index file stays open in append mode for the store's lifetime;
      there is no truncating mode, because a cache is meant to persist
      across runs. *)

  val fingerprint : t -> string
  (** The fingerprint the store was opened under. *)

  val digest_key : t -> string -> string
  (** Hex digest of [fingerprint ^ "\x00" ^ key] — the content address
      an entry lives under; exposed so provenance events can name it. *)

  val lookup : t -> decode:(string -> 'a option) -> string -> 'a option
  (** [lookup t ~decode key] reads the stored payload on demand and
      decodes it, usually with [Codec.decode c]. A missing, truncated or
      unreadable object, or a payload [decode] rejects (or raises on),
      drops the entry, counts it as corrupt and returns [None], so the
      next {!add} repairs it. Counts a hit only for a decoded payload, a
      miss otherwise. *)

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
