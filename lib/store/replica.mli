(** Per-replica durable state: one {!Wal} + one {!Snapshot} per node
    over any {!Backend}.

    The runtime appends one record per state change; once a node has
    accumulated [snapshot_every] appends, {!needs_snapshot} turns true
    and the caller writes its full state into {!save_snapshot}, which
    truncates the WAL.  {!recover} loads snapshot + WAL prefix and
    reports what survived; the fresh-join fall-back policy on
    corruption belongs to the caller (see [System.restart]). *)

type t

type recovery = {
  snapshot : Atum_util.Json.t option;  (** decoded snapshot, if any *)
  entries : Atum_util.Json.t list;  (** valid WAL prefix, oldest first *)
  wal_status : Wal.status;
  snapshot_error : string option;
      (** snapshot failed magic / version / HMAC / decode *)
}

val corrupt : recovery -> bool
(** True when the WAL hit a corrupt record or the snapshot failed
    authentication — the fresh-join fall-back trigger.  A merely
    truncated WAL is not corrupt. *)

val wal_name : string
val snapshot_name : string
(** The two file names used per node (damage targets for chaos). *)

val create : ?snapshot_every:int -> key:string -> Backend.t -> t
(** [snapshot_every] (default 64, >= 1) appends between snapshots;
    [key] authenticates snapshots (per deployment). *)

val backend : t -> Backend.t

type frame
(** One WAL record, encoded and checksummed.  It names no node: a
    record that several nodes log alike is framed once and appended to
    each of their logs. *)

val frame : t -> Atum_util.Json.t -> frame
(** Encode and checksum a record (see {!Wal.frame}). *)

val append : t -> node:int -> frame -> unit
(** Append a frame to the node's WAL; every append counts toward the
    node's {!needs_snapshot} trigger and its {!log_bytes}. *)

val needs_snapshot : t -> node:int -> bool

val save_snapshot : t -> node:int -> (Buffer.t -> unit) -> unit
(** Write the snapshot whose compact-JSON payload the writer appends
    to the buffer it is given (see {!Snapshot.save}), then truncate
    the node's WAL. *)

val recover : t -> node:int -> recovery

val wipe : t -> node:int -> unit
(** Drop both files — the fresh-join fall-back. *)

(* --- counters (telemetry gauges) ------------------------------------ *)

val appends : t -> int
val snapshots : t -> int
val replayed : t -> int
(** Cumulative WAL entries returned by {!recover} calls. *)

val fsyncs : t -> int
(** The backend's durable-write count. *)

val log_bytes : t -> int
(** Live WAL + snapshot bytes across all nodes. *)
