(** Versioned, HMAC-authenticated state snapshots.

    Layout: magic ["ATUMSNAP"], a version byte, an HMAC-SHA256 tag
    over (version byte + payload) with the deployment key, then the
    compact-JSON payload.  A failed magic/version/tag/decode check
    loads as [Error] — treated by recovery exactly like a corrupt
    WAL record (fresh-join fallback). *)

val header_bytes : int

val save :
  Buffer.t -> Atum_crypto.Hmac.ctx -> Backend.t -> node:int -> name:string ->
  (Buffer.t -> unit) -> int
(** [save buf mac b ~node ~name write] writes the snapshot whose
    payload [write] appends to [buf] (one compact JSON document),
    replacing any previous snapshot, and returns the blob size.  [buf]
    is encoding scratch and [mac] an HMAC context under the
    deployment key, both reused by the caller across calls, as for
    {!Wal.frame}. *)

val load :
  Backend.t -> key:string -> node:int -> name:string ->
  (Atum_util.Json.t option, string) result
(** [Ok None] when no snapshot exists. *)

val remove : Backend.t -> node:int -> name:string -> unit
