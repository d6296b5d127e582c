(** Atum: group communication using volatile groups — public API.

    This is the paper's §3.3 interface.  An application creates an
    instance ({!bootstrap}), adds nodes ({!join}), removes them
    ({!leave}), and disseminates data ({!broadcast}); it receives
    messages through the [deliver] callback and steers gossip through
    the [forward] callback.

    The whole deployment — nodes, vgroups, SMR, the H-graph overlay —
    runs inside a deterministic discrete-event simulation; drive it
    with {!run_for} / {!run_until}. *)

type t

type node_id = int

val create :
  ?params:Params.t ->
  ?net_config:Atum_sim.Network.config ->
  ?trace_capacity:int ->
  unit ->
  t
(** A fresh, empty deployment.  Defaults to {!Params.default} (Sync)
    with the matching network model.  [trace_capacity] sizes the trace
    ring (default {!Atum_sim.Trace.default_capacity}). *)

val bootstrap : t -> node_id
(** §3.3.1: create the instance — a single vgroup containing a single
    node, neighbor to itself on every H-graph cycle.  Returns the
    bootstrap node.  Must be called exactly once. *)

val join : t -> ?byzantine:bool -> contact:node_id -> unit -> node_id
(** §3.3.2: create a node and start its join through [contact]'s
    vgroup (agreement, random-walk placement, shuffle, split when
    oversized).  Returns the new node's id immediately; the join
    completes asynchronously in simulated time — poll {!is_member} or
    use {!join_with} for a completion callback. *)

val join_with : t -> ?byzantine:bool -> contact:node_id -> on_joined:(node_id -> unit) -> unit -> node_id

val leave : t -> node_id -> unit
(** §3.3.3: agreed departure, followed by merge or shuffle. *)

val broadcast : t -> from:node_id -> string -> int
(** §3.3.4: Byzantine broadcast in the caller's vgroup, then gossip
    across the overlay.  Returns the broadcast id. *)

val on_deliver : t -> (node_id -> bid:int -> origin:node_id -> string -> unit) -> unit
(** The [deliver] application callback: invoked once per (node,
    broadcast) on first acceptance. *)

val on_forward :
  t -> (bid:int -> from_vg:int -> cycle:int -> neighbor:int -> bool) -> unit
(** The [forward] application callback (§3.3.4): decide, per H-graph
    link, whether a vgroup forwards a broadcast to that neighbor.  The
    decision must be deterministic in its arguments: it stands for the
    whole vgroup, so the runtime takes it once per (vgroup, broadcast)
    and every correct member forwards by it.  Default:
    {!System.random_forward} — always the designated cycle, every other
    link with probability 1/2. *)

val crash : t -> node_id -> unit
(** Silence a node (it stops sending anything, including heartbeats,
    and will eventually be evicted if heartbeats are running). *)

val start_heartbeats : t -> unit
val stop_heartbeats : t -> unit

(* --- simulation control ------------------------------------------- *)

val run_for : t -> float -> unit
(** Advance simulated time by [dt] seconds. *)

val run_until : t -> float -> unit

val now : t -> float

(* --- introspection ------------------------------------------------- *)

val size : t -> int
(** Number of live nodes currently placed in a vgroup. *)

val vgroup_count : t -> int

val vgroup_sizes : t -> int list

val is_member : t -> node_id -> bool

val vgroup_of : t -> node_id -> int option

val members_of_vgroup : t -> int -> node_id list

val metrics : t -> Atum_sim.Metrics.t

val trace : t -> Atum_sim.Trace.t
(** Structured event trace (disabled unless
    [Atum_sim.Trace.set_enabled] is called). *)

val engine : t -> Atum_sim.Engine.t

val attach_telemetry :
  ?period:float -> ?capacity:int -> t -> Atum_sim.Telemetry.t
(** Attach the standard sim-time gauge set (see
    {!System.attach_telemetry}); idempotent. *)

val telemetry : t -> Atum_sim.Telemetry.t option

val messages_sent : t -> int
val bytes_sent : t -> int

val params : t -> Params.t

val check_overlay : t -> (unit, string) result
(** Verify the H-graph invariants (tests / debugging). *)

val system : t -> System.t
(** Escape hatch to the runtime internals (used by the workload
    generators and benchmarks). *)

val check_consistency : t -> (unit, string) result
(** Registry invariants: mutual membership, overlay/vgroup agreement
    (tests / debugging). *)
