(** AShare: file sharing over Atum (§4.2).

    Atum provides membership and reliable broadcast; AShare adds

    - a per-node metadata index ({!Kv_index}) updated by PUT / DELETE /
      replica-announcement broadcasts,
    - randomized replication with a feedback loop that keeps at least
      ρ replicas per file (Fig 5),
    - chunked parallel GET with SHA-256 integrity checks: corrupted
      chunks are detected and re-pulled from other replicas (§4.2.2).

    Small files carry real content and real chunk digests; large
    benchmark files are synthetic — only their size flows into the
    {!Atum_sim.Bulk} transfer-time model, and corruption is tracked as
    a per-replica flag (a Byzantine holder corrupts everything it
    stores, as in §6.2). *)

type t

type node_id = int

type content =
  | Real of string  (** actual bytes; digests are real SHA-256 *)
  | Synthetic of float  (** size in MB; used for benchmark-scale files *)

type get_result = {
  latency : float;  (** seconds of simulated wall time *)
  pulled_mb : float;  (** includes re-pulled corrupted chunks *)
  corrupted_chunks : int;  (** chunks that failed their integrity check *)
  data : string option;  (** the content, for [Real] files *)
}

val attach : Atum_core.Atum.t -> rho:int -> t
(** Build an AShare service on an already-grown Atum instance.  Takes
    over the instance's deliver callback.  [rho] is the replication
    target. *)

val atum : t -> Atum_core.Atum.t

val put :
  t -> owner:node_id -> name:string -> ?chunk_count:int -> content -> unit
(** PUT (§4.2.2): store at the owner, broadcast (owner, file, digests)
    so every node updates its index, then let randomized replication
    bring the file to ρ replicas. *)

val get :
  t -> reader:node_id -> owner:string -> name:string -> k:(get_result option -> unit) -> unit
(** GET: chunked parallel pull from every replica the reader's index
    knows, with integrity checks and re-pulls.  [k None] when the
    reader's index has no entry or no reachable correct replica. *)

val delete : t -> owner:node_id -> name:string -> unit
(** DELETE: broadcast; every node removes the metadata, holders drop
    their replicas. *)

val search : t -> node:node_id -> string -> (string * string) list
(** SEARCH on the node's own index: (owner, name) pairs matching the
    term. *)

val replica_count : t -> node:node_id -> owner:string -> name:string -> int
(** Replicas of the file according to [node]'s index. *)

val stores : t -> node:node_id -> owner:string -> name:string -> bool
(** Does [node] currently hold a replica? *)

val index_size : t -> node:node_id -> int

val indexes_converged : t -> bool
(** Do all correct member nodes hold identical index contents?  (Soft
    state must converge once broadcasts settle.) *)

val place_replicas : t -> owner:node_id -> name:string -> holders:node_id list -> unit
(** Experiment hook (Figs 10/11): force a replica placement without
    waiting for the feedback loop, updating every node's index. *)

val owner_name : node_id -> string
(** The namespace owner string for a node id. *)

(* --- durable state (snapshots + WAL replay) -------------------------- *)

val write_state : t -> node_id -> Buffer.t -> unit
(** Append the node's restart-critical soft state — metadata index
    plus stored-replica set — to the buffer as one compact JSON
    object, in deterministic (sorted) order. *)

val wipe_state : t -> node_id -> unit
(** Forget the node's in-memory state, as a cold restart would. *)

val import_state : t -> node_id -> Atum_util.Json.t -> unit
(** Inverse of {!write_state}, on the decoded JSON; ignores malformed
    input. *)

val replay_deliver : t -> node_id -> string -> unit
(** Re-apply one logged broadcast body to local state only: no
    re-broadcast, no replication lottery (those already ran before the
    crash). *)

val enable_persistence : t -> unit
(** Register the four hooks above with [System.set_app_state] so an
    attached durable store snapshots and replays AShare state across
    {!Atum_core.System.restart}. *)
