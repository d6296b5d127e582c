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
    without deriving the key's pad again or allocating. *)
