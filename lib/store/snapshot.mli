(** Versioned, HMAC-authenticated state snapshots.

    Layout: magic ["ATUMSNAP"], a version byte, an HMAC-SHA256 tag
    over (version byte + payload) with the deployment key, then the
    compact-JSON payload.  A failed magic/version/tag/decode check
    loads as [Error] — treated by recovery exactly like a corrupt
    WAL record (fresh-join fallback). *)

val magic : string
val version : int

val header_bytes : int

val save :
  Buffer.t -> Backend.t -> key:string -> node:int -> name:string -> Atum_util.Json.t -> int
(** [save buf b ~key ~node ~name doc] writes (replacing any previous
    snapshot) and returns the blob size.  [buf] is encoding scratch
    the caller reuses, as for {!Wal.frame}. *)

val load :
  Backend.t -> key:string -> node:int -> name:string ->
  (Atum_util.Json.t option, string) result
(** [Ok None] when no snapshot exists. *)

val remove : Backend.t -> node:int -> name:string -> unit
