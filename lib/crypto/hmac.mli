(** HMAC-SHA256 (RFC 2104), used to authenticate point-to-point
    messages between nodes that share a session key, and snapshots. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte raw HMAC-SHA256 tag. *)

val mac_hex : key:string -> string -> string

val verify : key:string -> msg:string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]. *)

(** {2 Incremental}

    For a message held in pieces (a snapshot's version byte and
    payload sit apart in its blob): feed each piece in order, then
    write the tag where it belongs. *)

type ctx

val init : key:string -> ctx
val feed_bytes : ctx -> Bytes.t -> off:int -> len:int -> unit

val finalize_into : ctx -> Bytes.t -> off:int -> unit
(** Write the 32-byte tag at [off]; the context is spent until
    {!reset}. *)

val reset : ctx -> unit
(** Start a new message under the same key, as a fresh {!init} would,
    without deriving the key's midstates again or allocating. *)

(** {2 Keys prepared once}

    A {!key} holds a secret's inner and outer SHA-256 midstates, so
    each message under it costs no key derivation and one compression
    fewer on each side; one {!ctx} serves messages under many keys. *)

type key

val key : ctx -> string -> key
(** [key ctx secret] derives [secret]'s key in [ctx]'s scratch; [ctx]
    must be given a message through {!mac_with} or {!reset} before
    its next use. *)

val mac_with : ctx -> key -> string -> string
(** [mac_with ctx k msg] = [mac ~key:secret msg] for [k = key secret],
    computed in [ctx], which then holds [k] for {!reset}. *)

val verify_with : ctx -> key -> msg:string -> tag:string -> bool
(** {!verify} under a prepared key. *)
