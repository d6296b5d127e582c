(** Simulated public-key signatures.

    The paper assumes a computationally bounded adversary that cannot
    forge signatures.  We model exactly that abstraction: a {!keyring}
    holds one secret per registered identity, a signature is an
    HMAC-SHA256 tag under the signer's secret, and verification
    recomputes the tag.  Within the simulator a Byzantine node can only
    produce signatures through {!sign} with its own identity, so
    unforgeability holds by construction, while digests and tags remain
    real SHA-256 values. *)

type keyring

type t = { signer : string; tag : string }
(** A detached signature: who signed, and the 32-byte tag. *)

val create_keyring : seed:int -> keyring

val register : keyring -> string -> unit
(** [register kr identity] generates a key pair for [identity].
    Idempotent. *)

val sign : keyring -> signer:string -> string -> t
(** Raises [Not_found] if [signer] is not registered. *)

val verify : keyring -> t -> msg:string -> bool
(** [verify kr s ~msg] checks that [s.tag] is a valid signature by
    [s.signer] over [msg].  Unregistered signers never verify. *)

val forge_attempt : signer:string -> msg:string -> t
(** A tag produced without the secret key — used in tests and fault
    injection to confirm that forgeries are rejected. *)
