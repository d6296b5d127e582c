(** Append-only, length-prefixed, checksummed write-ahead log.

    Each record is framed as a 4-byte big-endian payload length, the
    raw SHA-256 of the payload, then the payload itself (compact
    JSON).  {!replay} returns the longest valid prefix plus a status:
    a torn tail (crash mid-append) is {!Truncated} and tolerated; a
    checksum or decode failure is {!Corrupt}, which the recovery path
    treats as grounds for falling back to a fresh join. *)

type status =
  | Complete
  | Truncated of { dropped_bytes : int }
      (** The log ends mid-frame; the returned prefix is intact. *)
  | Corrupt of { at_record : int }
      (** Record [at_record] (0-based) failed its checksum or decode. *)

val header_bytes : int
(** Frame overhead per record: 4 (length) + 32 (SHA-256). *)

val frame : Atum_crypto.Sha256.ctx -> Buffer.t -> Atum_util.Json.t -> string
(** [frame sum buf record] is [record]'s frame, ready for a backend's
    [append].  [buf] is encoding scratch and [sum]
    a hash context, both reused by the caller across calls (their
    contents are overwritten); the frame itself is the only
    allocation.  It names no node, so one frame can be appended to
    every log that records the same thing.  Raises [Invalid_argument]
    on a record over 64 MiB, the bound beyond which {!replay} treats a
    length prefix as corruption. *)

val replay : Backend.t -> node:int -> name:string -> Atum_util.Json.t list * status
(** Decode the log front to back; a missing file is [([], Complete)]. *)

val reset : Backend.t -> node:int -> name:string -> unit
(** Delete the log (after a snapshot has captured its contents). *)
