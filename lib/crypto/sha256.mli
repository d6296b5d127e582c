(** SHA-256 (FIPS 180-4), implemented from scratch on native ints.

    Used for message digests, AShare chunk integrity checks, the WAL
    frame checksum and as the compression function behind {!Hmac}.
    Tested against the standard NIST test vectors. *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Return a context, finalized or not, to the state {!init} gives, so
    one context (and its buffers) serves digest after digest. *)

val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val feed_bytes : ctx -> Bytes.t -> off:int -> len:int -> unit
(** Absorb the [len] bytes of a buffer starting at [off], without
    copying them out first. *)

val finalize : ctx -> string
(** Returns the 32-byte raw digest and invalidates the context until
    {!reset}. *)

val finalize_into : ctx -> Bytes.t -> off:int -> unit
(** [finalize], writing the 32-byte digest into the buffer at [off]. *)

val midstate_into : ctx -> Bytes.t -> off:int -> unit
(** Write the 32-byte chaining state of a context that has absorbed
    whole blocks only at [off]; raises [Invalid_argument] otherwise. *)

val restore : ctx -> string -> off:int -> len:int -> unit
(** [restore ctx s ~off ~len] puts [ctx] in the state it had after
    absorbing [len] bytes (a multiple of 64) whose {!midstate_into}
    wrote the 32 bytes of [s] at [off]: what follows hashes as if those bytes had
    been fed again. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val digest_sub : string -> off:int -> len:int -> string
(** [digest_sub s ~off ~len] = [digest (String.sub s off len)],
    without the copy. *)

val hex : string -> string
(** [hex raw] renders a raw digest as lowercase hexadecimal. *)

val digest_hex : string -> string
(** [digest_hex msg] = [hex (digest msg)]. *)
