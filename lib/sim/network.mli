(** Simulated point-to-point network.

    Models the paper's two deployments:
    - a single-datacenter network with tight latency (Sync experiments),
    - a WAN across 8 regions with a heavy-tailed latency distribution
      (Async experiments).

    Messages between nodes in different partitions are silently
    dropped, and so is anything to or from a node in the crashed set.
    Both faults are reversible ({!heal}, {!recover}), which is what the
    chaos layer ({!Fault}) builds on. *)

type latency_model =
  | Fixed of float
  | Uniform of float * float  (** lower and upper bound, seconds *)
  | Lognormal of { mu : float; sigma : float; floor : float }
      (** heavy-tailed WAN latency; [floor] is the propagation minimum *)

type config = {
  latency : latency_model;
  drop_probability : float;  (** independent per-message loss *)
  seed : int;
  node_capacity : float option;
      (** messages/second one node can process; [None] = unbounded.
          When set, deliveries to a busy node queue behind its earlier
          messages, so hotspots build real queueing delay (the paper's
          EC2 micro instances are the motivation). *)
}

val datacenter_config : seed:int -> config
(** ~1 ms median intra-DC latency, no loss. *)

val wan_config : seed:int -> config
(** ~80 ms median, lognormal tail reaching seconds, 0.1% loss. *)

type 'msg t

val create : ?metrics:Metrics.t -> ?trace:Trace.t -> Engine.t -> config -> 'msg t
(** [metrics] receives per-reason drop counters (["net.drop.partition"],
    ["net.drop.loss"], ["net.drop.crash"], ["net.drop.no_handler"]);
    pass the owning system's metrics to aggregate, or omit for a
    private one.  [trace] (when enabled) records ["net.send"],
    ["net.deliver"] and ["net.drop.*"] events. *)

val engine : 'msg t -> Engine.t

val metrics : 'msg t -> Metrics.t

val trace : 'msg t -> Trace.t option
(** The trace handed to {!create} (the fault injector emits its
    ["fault.*"] events into the same log). *)

val register : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Install the message handler for a node id (replaces any previous
    one). *)

val unregister : 'msg t -> int -> unit
(** Messages to an unregistered node are dropped (counted). *)

val handler_of : 'msg t -> int -> (src:int -> 'msg -> unit) option
(** The handler installed for a node id, if any. *)

val send : ?size:int -> 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Queue a message for delivery after a sampled latency.  [size] (in
    bytes, default 64) only feeds the traffic accounting. *)

val send_multi : ?size:int -> 'msg t -> src:int -> dsts:int list -> 'msg -> unit
(** Batched fan-out: {!send_group} with the single sender
    [(src, size)]. *)

val send_group : 'msg t -> srcs:(int * int) array -> dsts:int array -> 'msg -> unit
(** Vgroup-round fan-in/fan-out: every [(src, size)] sender transmits
    [msg] to every destination, as ONE latency sample and ONE engine
    event (label ["net.transit.batch"]) for the whole round.  Each
    (src, dst) pair is admitted exactly like a {!send} — counters,
    ["net.send"] trace, partition/crash check and one loss draw — in
    src-major, then destination order; the latency is drawn once after
    admission, and only when some pair survived.  A batch that no
    fault cuts is admitted untraced a row at a time
    ({!Atum_util.Rng.bernoulli_row}) with the same draws, bits and
    counts.

    In flight, the batch is the [srcs] and [dsts] arrays it was
    admitted with and its survivor count, plus a survival bitmask of
    one bit per cell, so transit allocates no per-message record; the
    caller must not change either array afterwards.  Arrival walks the same grid in the same order and
    re-checks partition, crash and handler per surviving pair, except
    in settled columns (see {!set_settled}). *)

val set_settled : 'msg t -> (int -> 'msg -> bool) -> unit
(** [set_settled net f] installs the network's settled predicate
    (default: nothing settled).  When a {!send_group} batch arrives,
    [f dst msg] is evaluated once per registered destination, before
    any handler runs; only the first [Sys.int_size - 1] destinations
    are asked.  A destination for which it holds is a {e settled
    column}: its cells are counted exactly as a delivery or drop would
    count them (cut and handler checks with their drop reasons,
    {!messages_delivered}, ["net.deliver.post_heal"]), but its handler
    is not called.  When every column of an uncut batch is settled,
    the batch is counted from its survivor count.  The contract is
    that for such a destination the handler would do nothing
    observable with [msg], and would keep doing nothing for the rest
    of this arrival, whatever the earlier cells' handlers do.  The
    predicate is not asked while tracing is enabled or under
    [node_capacity], so the per-cell ["net.deliver"] trace and the
    service queue are unchanged. *)

val sample_latency : 'msg t -> float
(** One latency draw from the configured model (for protocols that
    need timeouts calibrated to the network).  Not scaled by
    {!set_latency_factor}: timeouts calibrate against the healthy
    network. *)

(* --- partitions and crashes (both reversible) ------------------------ *)

val set_partition : 'msg t -> int -> int -> unit
(** [set_partition net node tag] — nodes only hear nodes with the same
    tag (default tag 0). *)

val partition_of : 'msg t -> int -> int

val heal : 'msg t -> unit
(** Clear every partition tag (all nodes back to tag 0).  Deliveries
    from here on are additionally counted under
    ["net.deliver.post_heal"], so recovery verification can tell
    post-heal traffic from the pre-fault baseline. *)

val crash : 'msg t -> int -> unit
(** Add the node to the crashed set: nothing to or from it is
    delivered (drop reason ["crash"]).  Partition tags are untouched,
    so {!recover} can never collide with a legitimate tag. *)

val recover : 'msg t -> int -> unit
(** Remove the node from the crashed set; it rejoins whichever
    partition its tag says.  Counts subsequent deliveries under
    ["net.deliver.post_heal"] like {!heal}. *)

val is_crashed : 'msg t -> int -> bool

val crashed_nodes : 'msg t -> int list
(** Currently crashed node ids, ascending.  O(1) when no node is
    crashed; the incremental monitor derives its fault-candidate
    vgroups from this instead of scanning the registry. *)

val partitioned_nodes : 'msg t -> int list
(** Node ids with a nonzero partition tag, ascending.  O(1) when no
    partition is installed. *)

(* --- fault-injection overrides (identity by default) ----------------- *)

val set_loss_boost : 'msg t -> float -> unit
(** Additional independent per-message loss probability, added to the
    configured [drop_probability] (clamped to 1.0).  Raises
    [Invalid_argument] outside [0, 1].  Used by {!Fault.Loss_burst}. *)

val loss_boost : 'msg t -> float

val set_latency_factor : 'msg t -> float -> unit
(** Multiply every sampled transit latency (> 0; default 1.0).  Used
    by {!Fault.Latency_spike}. *)

val latency_factor : 'msg t -> float

val set_capacity_factor : 'msg t -> float -> unit
(** Scale per-node processing capacity (> 0; default 1.0; < 1.0
    degrades).  No effect when [node_capacity] is [None].  Used by
    {!Fault.Capacity_degrade}. *)

(* --- counters -------------------------------------------------------- *)

val messages_sent : 'msg t -> int
val messages_delivered : 'msg t -> int

val messages_dropped : 'msg t -> int
(** Aggregate of every drop; {!metrics} holds the same total split by
    reason.  A message dropped at delivery time (partition/crash
    re-check or missing handler) does {e not} consume receiver
    capacity. *)

val bytes_sent : 'msg t -> int
