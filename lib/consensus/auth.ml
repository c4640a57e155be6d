(** Simulated authentication for Dolev-Strong: unforgeable signature chains.

    The model has no PKI — the paper's fallback reference [15] assumes one,
    which is why our in-protocol fallback is phase-king instead (DESIGN.md,
    substitution 3). For the *baseline comparison* we still reproduce
    Dolev-Strong faithfully by simulating the setup: a {!signature} can only
    be created through {!sign}, so within the simulation signatures are
    unforgeable by construction (module abstraction plays the role of the
    cryptography). Omission-faulty processes follow the protocol anyway;
    the abstraction is what would keep a Byzantine implementation honest. *)

(* Besides the digest, a signature keeps what it was made over: the
   payload, the prefix list it was appended to, and whether the signers of
   that chain ([signer] and the prefix's) are distinct. A link whose tail
   is physically its [prefix] and whose payload matches was checked when
   it was made; any other link (a spliced or truncated chain) is checked
   on its digest. *)
type signature = {
  signer : int;
  digest : int;
  payload : int;
  prefix : signature list;
  distinct : bool;
}

(* The digest binds the signer, the payload and the entire chain prefix,
   like a real chained signature. Hashtbl.hash stands in for a collision-
   resistant hash; adequate inside a simulation. *)
let digest_of ~signer ~payload ~prefix =
  Hashtbl.hash (signer, payload, List.map (fun s -> (s.signer, s.digest)) prefix)

let rec signed_by pid = function
  | [] -> false
  | s :: rest -> s.signer = pid || signed_by pid rest

(* Are the signers of [chain] distinct? O(1) for a chain made by {!sign}. *)
let rec distinct = function
  | [] -> true
  | s :: rest when s.prefix == rest -> s.distinct
  | s :: rest -> (not (signed_by s.signer rest)) && distinct rest

(** [sign ~signer ~payload ~chain] appends [signer]'s signature over
    [payload] and the existing [chain]. *)
let sign ~signer ~payload ~chain =
  {
    signer;
    digest = digest_of ~signer ~payload ~prefix:chain;
    payload;
    prefix = chain;
    distinct = (not (signed_by signer chain)) && distinct chain;
  }
  :: chain

let signer s = s.signer
let digest s = s.digest

let rec links_valid payload = function
  | [] -> true
  | s :: rest ->
      ((s.prefix == rest && s.payload = payload)
      || s.digest = digest_of ~signer:s.signer ~payload ~prefix:rest)
      && links_valid payload rest

(** A chain is valid for [payload] if every link's digest checks out over
    its suffix and all signers are distinct. Chains are stored newest
    first; the original sender's signature is the last element. O(L) and
    allocation-free for a chain of L links made by {!sign}. *)
let valid_chain ~payload chain = distinct chain && links_valid payload chain

let rec origin = function [] -> -1 | [ s ] -> s.signer | _ :: rest -> origin rest

let length = List.length

(** Wire size: a real deployment would carry ~256 bits per signature; we
    charge a symbolic constant so message-complexity *shapes* stay honest
    relative to the paper's O(log n)-bit accounting. *)
let bits chain = 8 * List.length chain
