(** Simulated authentication for Dolev-Strong: signature chains that are
    unforgeable *by module abstraction* — a {!signature} can only come from
    {!sign}, playing the role of the PKI the paper's reference [15]
    assumes. *)

type signature

val sign : signer:int -> payload:int -> chain:signature list -> signature list
(** Append [signer]'s signature over [payload] and the existing chain.
    Chains are newest-first; the origin's signature is last. *)

val signer : signature -> int

val digest : signature -> int
(** The digest over signer, payload and prefix, as a verifier reads it. *)

val valid_chain : payload:int -> signature list -> bool
(** Every link checks out over its suffix and all signers are distinct.
    O(L) and allocation-free for a chain of L links made by {!sign}. *)

val origin : signature list -> int
(** The first signer (chain creator); [-1] for the empty chain. Does not
    allocate. *)

val signed_by : int -> signature list -> bool
(** Does [pid] sign some link of the chain? Does not allocate. *)

val length : signature list -> int

val bits : signature list -> int
(** Symbolic wire size charged per signature. *)
