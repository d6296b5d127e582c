(** Ring-buffered structured event log for the simulator.

    [Engine], [Network] and [Atum_core.System] emit events into a
    shared trace behind a cheap enabled-check (one mutable-bool read),
    so tracing costs nothing when off and never allocates more than
    the fixed ring when on.  Once the ring wraps, the oldest events
    are overwritten; [dropped] reports how many were lost, and
    [dropped_by_kind] which kinds are incomplete.

    Events carry optional correlation fields so post-hoc analysis can
    reconstruct causality: [bid] links every event touching one
    broadcast, [span]/[parent] pair begin/end events of sagas (join,
    shuffle, split, ...) into a tree, and [cycle] records which
    H-graph cycle a gossip hop travelled on.

    At large scale the hot kinds ([bcast.hop], [net.*]) would wrap the
    ring within simulated seconds, so each kind carries a {!level}:
    [Always] kinds (sagas, [monitor.violation.*], [fault.*],
    membership) always record, [Sampled] kinds record a deterministic
    fraction chosen by hashing the event's correlation id — one
    admitted broadcast keeps its whole hop lineage — and [Debug] kinds
    are off unless {!set_debug} is on.  Exact per-kind admitted and
    sampled-out counters keep downstream analysis honest about what
    the ring saw. *)

type event = {
  time : float;  (** simulated seconds *)
  kind : string;  (** e.g. ["net.send"], ["vgroup.split"] *)
  node : int;  (** primary node id, [-1] when not applicable *)
  peer : int;  (** secondary node id (e.g. destination), [-1] if none *)
  vgroup : int;  (** vgroup id, [-1] if none *)
  size : int;  (** payload bytes, [0] if not applicable *)
  bid : int;  (** broadcast id, [-1] if none *)
  span : int;  (** saga span id, [-1] if none *)
  parent : int;  (** parent span id, or sender vgroup for ["bcast.hop"]; [-1] if none *)
  cycle : int;  (** H-graph cycle index for gossip hops, [-1] if none *)
}

type level =
  | Always  (** record every occurrence *)
  | Sampled  (** record a {!sample_rate} fraction, by correlation id *)
  | Debug  (** record only when {!set_debug} is on *)

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** Default capacity 65536 events, disabled.  Raises
    [Invalid_argument] on non-positive capacity. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val capacity_for_scale : nodes:int -> int
(** Recommended ring capacity for an [nodes]-node run: the default
    65536 up to 10k nodes, then 131072 / 524288 / 1048576 at the 10k /
    100k / 1M tiers. *)

val default_level : string -> level
(** [bcast.hop], [bcast.dup] and the [net.*] namespace default to
    [Sampled]; the [debug.*] namespace to [Debug]; everything else to
    [Always]. *)

val level_of : t -> string -> level
(** Effective level: per-kind override if set, else {!default_level}. *)

val set_level : t -> kind:string -> level -> unit
(** Override the level of one kind. *)

val sample_rate : t -> float

val set_sample_rate : t -> float -> unit
(** Fraction of [Sampled]-kind correlation ids admitted, in [0, 1]
    (default 1.0 = record everything).  The decision hashes the
    event's correlation id (bid, else span, else node, else peer)
    with the deterministic [Hashtbl.hash], so same-seed runs admit
    the same events and an admitted broadcast keeps its full hop
    lineage.  Raises [Invalid_argument] outside [0, 1]. *)

val set_debug : t -> bool -> unit
(** Enable [Debug]-level kinds (default off). *)

val emit :
  t ->
  time:float ->
  kind:string ->
  ?node:int ->
  ?peer:int ->
  ?vgroup:int ->
  ?size:int ->
  ?bid:int ->
  ?span:int ->
  ?parent:int ->
  ?cycle:int ->
  unit ->
  unit
(** No-op when disabled.  Suppressed (not recorded, counted in
    {!sampled_out}) when the kind's level and the sampling decision
    say so. *)

val iter : t -> (event -> unit) -> unit
(** Visit buffered events oldest-first without materializing a list. *)

val fold : t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Fold over buffered events oldest-first, allocation-free. *)

val events : t -> event list
(** Buffered events, oldest first (at most [capacity] of them).
    Materializes a list; prefer {!iter}/{!fold} on large rings. *)

val last_events : t -> int -> event list
(** [last_events t k]: the newest (up to) [k] buffered events, oldest
    first — the flight-recorder window. *)

val capacity : t -> int

val length : t -> int
(** Events currently buffered. *)

val total : t -> int
(** Events ever admitted to the ring (while enabled). *)

val dropped : t -> int
(** [total - length]: admitted events overwritten by ring wraparound. *)

val dropped_by_kind : t -> (string * int) list
(** Overwritten-event counts grouped by [kind], sorted by kind.
    Empty until the ring wraps. *)

val sampled_out : t -> int
(** Events suppressed by sampling or level (exact count). *)

val sampled_out_by_kind : t -> (string * int) list
(** Suppressed-event counts grouped by [kind], sorted by kind. *)

val admitted_by_kind : t -> (string * int) list
(** Admitted-event counts grouped by [kind], sorted by kind.  Unlike
    the ring contents these survive wraparound, so
    [admitted + sampled_out] is the true emission count per kind. *)

val lossy : t -> bool
(** True when the ring wrapped or sampling suppressed anything —
    downstream stats are estimates. *)

val clear : t -> unit
(** Drop buffered events and reset all counters.  Levels, sample rate
    and the enabled flag are preserved. *)
