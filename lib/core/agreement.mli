(** Agreement inside a vgroup: the replicas of the current epoch
    (Dolev-Strong under Sync, PBFT under Async), the agreements pending
    on the vgroup, their carry-over across epochs, and the typed
    operation the replicas execute.  [System] drives it; nothing else
    should. *)

(** What a vgroup's replicas agree on.  [Control] is a registry change
    whose pending action fires once a majority of the members executed
    it; [Bcast] is the first phase of a broadcast, delivered at every
    member that executes it. *)
type op =
  | Control of { id : int; label : string }
  | Bcast of { bid : int; origin : Registry.node_id; body : string }

val encode_op : op -> string
(** [op#<id>#<label>] or [bcast#<bid>#<origin>#<body>]: the string the
    SMR layer signs (Dolev-Strong) and digests (PBFT). *)

val decode_op : string -> op option
(** Total inverse of {!encode_op}: [None] for any string that is not
    the encoding of some [op] (integers must be canonical decimals). *)

val ensure_smr : Registry.t -> Registry.vgroup -> unit
(** Install one replica per correct member for the vgroup's current
    epoch, unless it has replicas already (bulk-built vgroups install
    lazily). *)

val on_execute :
  Registry.t -> Registry.vgroup -> Registry.node_id -> Atum_smr.Smr_intf.op -> unit
(** A member's replica executed an operation: deliver a broadcast at
    it, and count the member once toward the op's pending agreement. *)

val stop_smr : Registry.vgroup -> unit
(** Stop the vgroup's replicas and drop them. *)

val reconfigure : Registry.t -> Registry.vgroup -> unit
(** Membership changed: bump the epoch, replace the replicas and
    re-propose every pending agreement and broadcast. *)

val agree : Registry.t -> Registry.vgroup -> ?parent:int -> string -> (unit -> unit) -> unit
(** Propose a [Control] operation and keep it pending on the vgroup
    until it fires. *)

val propose_bcast :
  Registry.t -> Registry.vgroup -> origin:Registry.node_id -> bid:int -> body:string -> unit
(** Propose a broadcast's [Bcast] operation, through [origin] if it is
    correct, and keep it pending on the vgroup until a majority of the
    members has executed it: an epoch change before then re-proposes
    it. *)

val receive :
  Registry.vgroup -> Registry.node_id -> src:Registry.node_id -> Registry.smr_msg -> unit
(** Deliver an SMR message to the member's replica of the current
    epoch (the caller checks the epoch). *)

val on_round_boundary : Registry.t -> Registry.vgroup -> unit
(** Drive the vgroup's Sync replicas of correct members through one
    round boundary, in ascending member order. *)

val async_replicas : Registry.vgroup -> (Registry.node_id * Atum_smr.Pbft.t) list
(** The current epoch's PBFT replicas by ascending member id; empty
    under Sync or before installation. *)
