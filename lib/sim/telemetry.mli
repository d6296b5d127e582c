(** Sim-time telemetry: named gauges sampled on a fixed virtual-time
    period into a ring buffer, exported as the time-indexed series
    behind the paper's evolving-load plots (system size over time,
    churn absorbed per round, bandwidth footprint...).

    Gauges are closures over live simulation state, registered before
    {!start} and then sampled together by one [Engine.every] task
    (label ["telemetry.sample"]), so every series shares one time
    axis.  Sampling only {e reads} state — it draws no randomness and
    sends no messages — so attaching telemetry never perturbs a seeded
    run, and the export is byte-identical across same-seed runs. *)

type t

val default_period : float
(** 5 simulated seconds. *)

val default_capacity : int
(** 4096 samples (~5.7 simulated hours at the default period). *)

val create : ?period:float -> ?capacity:int -> Engine.t -> t
(** Raises [Invalid_argument] on a non-positive period or capacity. *)

val period : t -> float
val capacity : t -> int

val register : t -> string -> (unit -> float) -> unit
(** [register t name read] adds a gauge.  Names must be unique (raises
    [Invalid_argument] on a duplicate).  Gauges registered before
    {!start} are sampled — and exported — in name order; a gauge
    registered after sampling started (e.g. a {!Fault} schedule
    installed mid-run) is appended after them with zeros backfilled
    for the samples it missed, so every series still shares the ring's
    time axis. *)

val register_delta : t -> string -> (unit -> int) -> unit
(** A gauge reporting the {e increase} of a monotonic counter since
    the previous sample — drop rates, bytes on wire per period,
    violation deltas.  The first sample reports the counter itself
    (baseline 0). *)

val start : t -> unit
(** Freeze the gauge set and begin periodic sampling at [now +
    period].  Idempotent. *)

val stop : t -> unit
(** Cease sampling after the current tick; the collected series stay
    readable. *)

val gauge_names : t -> string list
(** The export order, before and after {!start} alike: gauges
    registered pre-start sorted by name, then any late registrations
    in arrival order. *)

val samples_total : t -> int
(** Samples ever taken (>= kept; the ring overwrites the oldest). *)

val samples_kept : t -> int

val times : t -> float list
(** Sample timestamps, oldest first. *)

val series : t -> string -> float list
(** Values of one gauge aligned with {!times}; [] for unknown names. *)

val to_csv : t -> string
(** Header [time,<gauge>,...] then one row per kept sample. *)
