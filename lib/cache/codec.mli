(** Typed codecs for cache payloads.

    Every cached result is written and read through one grammar:

    - a payload is atoms joined by [' ']; tuples and records ({!pair},
      {!triple}, {!conv}) flatten into their parent's atoms;
    - a list is one token: ["."] when empty, otherwise its elements
      joined by [','], the atoms inside one element joined by [':'];
    - [None] is ["-"]; a bit string is one [01…] token (["."] when
      empty); floats are [%h] hex, so they round-trip bit for bit (every
      NaN reads back as [nan]).

    {!encode} raises [Invalid_argument] on a list inside a list, on a
    string atom that is empty, ["-"] or ["."], and on a string atom
    holding a separator of its context ([' '] anywhere; [','] or [':']
    inside a list). {!decode} returns [None] unless the payload has
    exactly the codec's tokens, and raises on a malformed atom;
    {!Cache.Store.lookup} counts both as a corrupt entry. *)

type 'a t

val int : int t
val bool : bool t
val float : float t
val string : string t
val bits : bool array t

val option : 'a t -> 'a option t
(** The content must not itself start with an option: [Some None] would
    read back as [None]. *)

val list : 'a t -> 'a list t
val array : 'a t -> 'a array t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [conv f g c] writes [f v] with [c] and reads back through [g]; [g]
    may raise on a value it rejects. Records go through a tuple. *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> 'a option
