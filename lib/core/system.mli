(** The Atum runtime: volatile groups over a simulated network.

    This is the engine behind the {!Atum} facade.  It owns the ground
    truth — which node is in which vgroup and the H-graph overlay —
    and mutates it only when the responsible vgroup's SMR instance has
    agreed on the change at a majority of its correct members (the
    vgroup-controller abstraction documented in DESIGN.md §4).
    Message fan-out, group-message acceptance, SMR latency, gossip,
    heartbeats and quiet-Byzantine behaviour are all simulated at
    per-node message granularity.

    Most users should go through {!Atum}; the extra surface here
    (sagas, walks, group messages, introspection of nodes and vgroups)
    exists for the workload generators, benchmarks and tests. *)

type node_id = int
type vg_id = int

(** How an adversarial node behaves (see {!make_byzantine}).  [Mute]
    is the quiet-Byzantine model of §6.1.3: heartbeat, ignore protocol
    traffic, never help dissemination.  The active strategies
    implement the attacks the paper claims to withstand:
    - [Equivocate]: re-gossip every broadcast it hears with a
      {e different} body per H-graph cycle, trying to poison delivery
      at nodes that have not yet accepted the real payload;
    - [Selective_drop p]: drop each broadcast with probability [p]
      (deterministic per (bid, node) coin), relay it faithfully
      otherwise — the gray attacker that defeats naive gossip;
    - [Flood]: periodically blast [fanout] junk direct messages of
      [size] bytes at random live nodes, burning receive capacity;
    - [Join_leave_attack]: alternate leave/rejoin to keep the
      membership machinery churning;
    - [Target_vgroup]: the §6.2 targeted attack — re-roll join
      placements until the node lands in vgroup [vg], behaving on the
      wire as [inner] (which must not itself be [Target_vgroup]).
    Per-strategy activity is counted under ["byzantine.*"] metrics
    (equivocation, selective_drop, relay, flood.sent, join_leave,
    target.attempt, target.landed). *)
type byz_strategy =
  | Mute
  | Equivocate
  | Selective_drop of float
  | Flood of { fanout : int; size : int }
  | Join_leave_attack
  | Target_vgroup of { vg : vg_id; inner : byz_strategy }

(** A node's runtime state.  [vg = None] means the node is not (or no
    longer) part of the system. *)
type node = {
  id : node_id;
  mutable vg : vg_id option;
  mutable byzantine : bool;
  mutable strategy : byz_strategy;
  mutable alive : bool;
  mutable exchanging : bool;
  delivered : Atum_util.Bitset.t;
      (** broadcast ids this node has delivered (or, for a Byzantine
          node, reacted to) — dense bids make a bitset 8× denser than
          the per-node hash table it replaces *)
}

type replica
(** One member's SMR instance (Dolev-Strong rounds or PBFT). *)

type replicas
(** One epoch's replicas, one per correct member, found by member id
    without a list walk. *)

type pending_op
(** An agreement proposed on a vgroup that has not fired yet. *)

type roster
(** A vgroup's membership between two writes, with ranks by id. *)

type vgroup = {
  vid : vg_id;
  mutable roster : roster;  (** written only by {!set_members} *)
  mutable epoch : int;  (** bumped on every reconfiguration *)
  mutable smr : replicas option;
      (** the current epoch's replicas; [None] until installed *)
  mutable pending : pending_op list;  (** agreements in flight, newest first *)
  mutable busy : bool;  (** held by a shuffle / split / merge *)
  mutable shuffle_pending : bool;
  mutable retired : bool;  (** merged away or emptied *)
  mutable saga_gen : int;  (** increments when a saga takes the vgroup *)
  mutable nbrs_gen : int;  (** overlay generation the [nbrs] cache was built at *)
  mutable nbrs : (vg_id * int list) list;
      (** cached gossip view: each distinct overlay neighbor with the
          ascending list of cycles linking to it; rebuilt lazily when
          [nbrs_gen] falls behind the overlay generation *)
  mutable fwd_bid : int;
      (** broadcast [fwd_targets] was decided for; [-1] once the view
          is rebuilt or the forward policy replaced *)
  mutable fwd_targets : (vg_id * int) list;  (** see {!gossip_targets} *)
}

type t

type wire
(** The wire message type (SMR traffic, group-message parts, direct
    messages, heartbeats).  Abstract: inspect traffic through the
    {!Atum_sim.Network} counters. *)

(* --- construction and simulation control ---------------------------- *)

val create : ?net_config:Atum_sim.Network.config -> ?trace_capacity:int -> Params.t -> t
(** [trace_capacity] sizes the trace ring (default 65536 events; see
    {!Atum_sim.Trace.capacity_for_scale} for large runs). *)

val engine : t -> Atum_sim.Engine.t
val network : t -> wire Atum_sim.Network.t
val metrics : t -> Atum_sim.Metrics.t

val trace : t -> Atum_sim.Trace.t
(** The structured event trace shared by the engine, the network and
    the protocol layer.  Disabled by default; call
    [Atum_sim.Trace.set_enabled] to start recording. *)

val attach_telemetry :
  ?period:float -> ?capacity:int -> t -> Atum_sim.Telemetry.t
(** Register the standard gauge set (system/vgroup sizes, Byzantine
    count, engine queue depth, in-flight messages, bytes and drops per
    period, active sagas, [monitor.violation.*] deltas — 15 gauges)
    and start sampling every [period] (default 5) simulated seconds.
    Idempotent: a second call returns the already-attached instance.
    Sampling only reads state, so it never perturbs a seeded run. *)

val telemetry : t -> Atum_sim.Telemetry.t option

val params : t -> Params.t
val now : t -> float
val run_until : t -> float -> unit
val run_for : t -> float -> unit

(* --- node lifecycle -------------------------------------------------- *)

val bootstrap : t -> ?byzantine:bool -> unit -> node_id
(** Create the instance: one vgroup holding one node (§3.3.1).  Starts
    the round driver for synchronous deployments.  Callable once. *)

val spawn_node : t -> ?byzantine:bool -> unit -> node_id
(** Register a node with the network and keyring without joining it. *)

val build_direct : t -> nodes:int -> unit -> node_id list
(** Bulk construction for benchmarks and large experiments: spawn
    [nodes] nodes, partition them into vgroups sized around
    [(gmin + gmax) / 2], and build the overlay directly, instead of
    running one join saga per node.  SMR instances are installed
    lazily, on the vgroup's first {!agree}/{!broadcast}.  The result
    is a settled, {!check_consistency}-clean system.  Callable once,
    in place of {!bootstrap}; returns the node ids in ascending
    order. *)

val release_node : t -> node_id -> unit
(** Return a departed node's id to the arena free list so a later
    {!spawn_node} can reuse it.  The node must be outside the system
    ([vg = None]) and not alive inside it; raises [Invalid_argument]
    otherwise.  Unregisters the node from the network and drops its
    liveness bookkeeping. *)

val set_id_recycling : t -> bool -> unit
(** When enabled, a node that completes a leave/evict saga with no
    vgroup is released automatically ({!release_node}).  Off by
    default: rejoin-style workloads (the join-leave attack) expect
    their node ids to survive departure. *)

val join : t -> joiner:node_id -> contact:node_id -> ?k:(vg_id -> unit) -> unit -> unit
(** §3.3.2 join saga; [k] fires when the joiner is installed in its
    vgroup (before the follow-up shuffle/split). *)

val leave : t -> target:node_id -> ?k:(unit -> unit) -> unit -> unit

val evict : t -> target:node_id -> ?k:(unit -> unit) -> unit -> unit

val crash : t -> node_id -> unit
(** Silence a node entirely (heartbeats included).  Reversible with
    {!recover}. *)

val recover : t -> node_id -> unit
(** Bring a crashed node back.  It resumes with whatever registry
    state it still holds: if its vgroup evicted it while it was down
    it simply idles outside the system, otherwise it rejoins protocol
    traffic where it left off.  No-op on a live node.  Counted under
    ["node.recovered"]. *)

(* --- durable replica state and crash-restart recovery ---------------- *)

type restart_report = {
  r_node : node_id;
  r_restarted_at : float;
  mutable r_rejoined_at : float option;
      (** when registry membership was re-established *)
  mutable r_caught_up_at : float option;
      (** when missed-broadcast catch-up completed *)
  r_fallback : bool;
      (** the store was corrupt: wiped, recovered via fresh join *)
  r_replayed : int;  (** WAL entries applied during the cold start *)
}

val attach_store :
  ?snapshot_every:int -> t -> Atum_store.Backend.t -> Atum_store.Replica.t
(** Attach a durable per-replica store (WAL + snapshots over
    [backend]).  From then on every broadcast delivery and registry
    pointer change is appended to the owning node's WAL, folding into
    a snapshot every [snapshot_every] (default 64) appends; a snapshot
    due at a delivery is cut after the application has applied it.  The
    snapshot HMAC key is derived from the run's seed.  Registers the
    [store.*] telemetry gauges when telemetry is (or later becomes)
    attached.  Raises [Invalid_argument] if a store is already
    attached. *)

val store : t -> Atum_store.Replica.t option

val set_app_state :
  t ->
  export:(node_id -> Buffer.t -> unit) ->
  wipe:(node_id -> unit) ->
  import:(node_id -> Atum_util.Json.t -> unit) ->
  replay:(node_id -> bid:int -> origin:node_id -> string -> unit) ->
  unit
(** Let the application above the GCS (e.g. AShare) participate in
    durability: [export] writes its per-node state into snapshots, as
    one compact JSON object appended to the buffer it is given (the
    snapshot's ["app"] member, which [import] gets back decoded),
    [wipe]/[import] reset and restore it during {!restart}, and
    [replay] applies one logged broadcast locally (no re-broadcast, no
    [set_deliver] callback — workload counters must not double-count
    replay). *)

val restart : ?contact:node_id -> t -> node_id -> unit
(** Cold-restart a crashed node from its durable store: wipe its
    in-memory state, rebuild from snapshot + WAL (tolerating a
    truncated tail), then resume in place if the registry still lists
    it or fresh-join via [contact] (default: lowest-id live correct
    node) if it was evicted — and finally catch up on missed
    broadcasts from a correct vgroup peer.  A corrupt store (bad WAL
    record, snapshot failing authentication) is wiped and the node
    fresh-joins, counted under ["recovery.fallback"].  Raises
    [Invalid_argument] on a live node.  Instruments ["recovery.*"]
    metrics and trace events and appends a {!restart_report}. *)

val restart_reports : t -> restart_report list
(** Oldest first. *)

val make_byzantine : t -> ?strategy:byz_strategy -> node_id -> unit
(** Turn a node adversarial; [strategy] defaults to [Mute]
    (§6.1.3).  Active strategies install a periodic driver task that
    stops when the node dies.  Raises [Invalid_argument] on a
    [Selective_drop] probability outside [0, 1] or a nested
    [Target_vgroup]. *)

(* --- dissemination --------------------------------------------------- *)

val broadcast : t -> from:node_id -> string -> int
(** §3.3.4: SMR in the caller's vgroup, then gossip; returns the
    broadcast id. *)

val set_deliver : t -> (node_id -> bid:int -> origin:node_id -> string -> unit) -> unit

val sent_body : t -> int -> string option
(** The body {!broadcast} issued the id with; [None] for an id it never
    issued.  An oracle read, for the invariant monitor. *)

(** Semantic checkpoints fired synchronously where the registry or a
    node's delivery log changes — the invariant monitor subscribes via
    {!set_audit}.  [Audit_deliver.body] is the body the node
    delivered. *)
type audit =
  | Audit_deliver of { node : node_id; bid : int; body : string }
  | Audit_reconfig of vg_id

val set_audit : t -> (audit -> unit) option -> unit
(** At most one auditor; [None] unsubscribes. *)

val set_forward_policy :
  t -> (bid:int -> from_vg:vg_id -> cycle:int -> neighbor:vg_id -> bool) -> unit
(** Replace the gossip forward callback.  The default forwards on a
    designated cycle always (deterministic delivery) and on every other
    link with probability 1/2, decided by a hash all members compute
    identically; latency-sensitive applications flood
    ({!flood_forward}), throughput-oriented ones restrict to fewer
    cycles (§3.3.4).  The callback must be deterministic in its
    arguments: {!gossip_targets} memoises its decisions, and this
    call discards them. *)

val gossip_targets : t -> vgroup -> bid:int -> (vg_id * int) list
(** The vgroup's forward decision for broadcast [bid]: one
    [(neighbor, cycle)] per neighbor the forward callback selects on
    some linking cycle, tagged with the lowest such cycle, sorted by
    neighbor.  Computed once per (vgroup, broadcast) and reused by
    every member that forwards it, until the overlay changes or
    {!set_forward_policy} runs. *)

val flood_forward : bid:int -> from_vg:vg_id -> cycle:int -> neighbor:vg_id -> bool

(* --- heartbeats / eviction ------------------------------------------ *)

val start_heartbeats : t -> unit

(* --- overlay protocols (exposed for tests and experiments) ----------- *)

val start_walk : ?parent:int -> t -> from_vg:vg_id -> k:(vg_id -> unit) -> unit
(** Distributed random walk: rwl group-message hops with bulk RNG,
    then backward phase (Sync) or certificate reply (Async); [k]
    receives the selected vgroup.  [parent] links the walk's trace
    span under an enclosing saga. *)

val group_send :
  t ->
  src_vg:vg_id ->
  dst_vg:vg_id ->
  label:string ->
  ?size:int ->
  ?k:(unit -> unit) ->
  ?on_fail:(unit -> unit) ->
  unit ->
  unit
(** Control group message [src_vg -> dst_vg] (§5.1): every correct
    member of the source sends to every member of the destination.  A
    destination member accepts once a majority of the source has sent
    to it; [k] fires once, when a majority of the destination has
    accepted.  [on_fail] runs instead when either vgroup is gone. *)

val agree : t -> vgroup -> ?parent:int -> string -> (unit -> unit) -> unit
(** Run one operation through the vgroup's SMR; the action fires once,
    when a majority of members have executed it.  [parent] links the
    agreement's trace span under an enclosing saga. *)

val on_execute : t -> vgroup -> node_id -> Atum_smr.Smr_intf.op -> unit
(** What the vgroup does when a member's replica executes an
    operation: count the member once toward its pending agreement, or
    deliver a broadcast at it.  Exposed so tests can drive it without
    a replica. *)

(* --- introspection --------------------------------------------------- *)

val partial_votes : t -> (node_id * int) list
(** The (node, broadcast id) pairs, ascending, for which a node holds
    gossip votes short of acceptance. *)

val node : t -> node_id -> node
val node_opt : t -> node_id -> node option
val vgroup : t -> vg_id -> vgroup
val vgroup_opt : t -> vg_id -> vgroup option
val live_nodes : t -> node list

val system_size : t -> int
(** O(1): a maintained counter, not a registry recount. *)

val vgroup_count : t -> int
val vgroup_ids : t -> vg_id list
(** Every vgroup id ever created, retired ones included, sorted. *)

val vgroup_sizes : t -> int list

val members : vgroup -> node_id list
(** In join order. *)

val size : vgroup -> int
(** O(1). *)

val set_members : t -> vgroup -> node_id list -> unit
(** The one write of a vgroup's membership; the nodes' [vg] pointers
    and the replicas are the caller's to keep consistent. *)

val correct_members : t -> vgroup -> node_id list

val async_replicas : vgroup -> (node_id * Atum_smr.Pbft.t) list
(** The current epoch's PBFT replicas by ascending member id; empty
    under Sync or before installation. *)

val hgraph : t -> Atum_overlay.Hgraph.t
val check_consistency : t -> (unit, string) result

val dirty_cursor : t -> int
(** Current position in the dirty log.  Hand it back to
    {!dirty_since} later to learn which vgroups changed in between. *)

val dirty_since : t -> int -> vg_id list
(** Vgroup ids touched since the cursor, deduped, ascending.  Every
    membership, liveness, retirement or Byzantine-flag change marks
    the vgroups on both ends of the transition. *)

(* --- ablation hooks --------------------------------------------------- *)

val set_shuffling : t -> bool -> unit
(** Disable/enable random-walk shuffling (fault dispersal, §3.2) while
    keeping the rest of the membership machinery — used by the
    ablation benchmark. *)

val byzantine_concentration : t -> float
(** Largest per-vgroup fraction of Byzantine members — the quantity
    shuffling is designed to keep low. *)
