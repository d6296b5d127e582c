(** Scripted fault injection.

    A declarative, sim-time-driven schedule of network faults and
    their inverses, executed by labeled {!Engine} tasks.  The schedule
    is plain data (serialized into artifacts by {!Artifact}), every
    step fires at a fixed offset from {!install} time, and all
    randomness stays in the network's seeded RNG — so a seeded run
    with a fixed schedule is exactly reproducible.

    Each applied step bumps a [fault.<step>] metrics counter and, when
    the network is traced, emits a [fault.<step>] trace event;
    transient steps additionally emit [fault.<step>.end] when they
    expire. *)

type step =
  | Partition of int list list
      (** Sever the network between groups: group [i] gets partition
          tag [i + 1]; unlisted nodes stay at tag 0.  Undone by
          {!Heal}. *)
  | Heal  (** [Network.heal]: clear all partition tags. *)
  | Crash of int list
      (** Crash each node (via the [on_crash] hook, default
          {!Network.crash}).  Undone by {!Recover}. *)
  | Recover of int list  (** Revive each node ([on_recover], default {!Network.recover}). *)
  | Loss_burst of { p : float; duration : float }
      (** Add [p] to the drop probability for [duration] seconds, then
          reset automatically.  [p] must be in [0, 1]. *)
  | Latency_spike of { factor : float; duration : float }
      (** Multiply transit delay by [factor] (> 0) for [duration]
          seconds. *)
  | Capacity_degrade of { factor : float; duration : float }
      (** Scale per-node delivery capacity by [factor] (> 0) for
          [duration] seconds. *)
  | Restart of { nodes : int list; down : float }
      (** Crash each node at [after], then cold-restart it [down] (> 0)
          seconds later via the [on_restart] hook (default
          [on_recover]) — the crash→durable-recovery→rejoin loop. *)

type entry = { after : float; step : step }
(** One scheduled step, [after] seconds (>= 0) from install time. *)

type schedule = entry list

val step_name : step -> string
(** ["partition"], ["heal"], ["crash"], ... — the suffix used in task
    labels and [fault.*] metric / trace kinds. *)

val validate : schedule -> unit
(** Raise [Invalid_argument] on empty partition groups, empty
    crash/recover/restart node lists, [p] outside [0, 1], non-positive
    factors, durations or down times, or negative offsets — and, in
    time order, on a [Recover] of a node with no preceding [Crash] or
    a [Heal] with no partition in force (such inverse steps silently
    did nothing).  [Restart] crashes and revives its own nodes, so it
    neither satisfies nor needs a later [Recover].  {!install} calls
    this. *)

val span : schedule -> float
(** Latest moment the schedule is still acting: the max over entries
    of [after] (plus [duration] for transient steps, [down] for
    restarts). *)

val heal_offsets : schedule -> float list
(** Offsets of the {!Heal} and {!Recover} steps (and [after + down]
    for {!Restart}), in schedule order — the points after which a
    recovery checker should start polling for convergence. *)

type t
(** A live installed schedule. *)

val install :
  ?on_crash:(int -> unit) ->
  ?on_recover:(int -> unit) ->
  ?on_restart:(int -> unit) ->
  'msg Network.t ->
  schedule ->
  t
(** Validate the schedule and register one labeled engine task per
    entry ([fault.<step>] at [+after]; transient steps also get their
    own [fault.<step>.end] expiry task; [Restart] crashes via
    [on_crash] at [+after] and revives via [on_restart] at
    [+after+down]).  The hooks let a higher layer substitute
    registry-aware crash/recover/restart (e.g. [System.crash] /
    [System.recover] / [System.restart]) for the network-level
    defaults without this module depending on it. *)

val applied : t -> int
(** Steps executed so far. *)

val active : t -> int
(** Faults currently in force: 1 if partitioned, plus nodes this
    schedule crashed and has not recovered, plus transient bursts in
    flight. *)

val attach_gauges : t -> Telemetry.t -> unit
(** Register [fault.active] and [fault.applied] gauges. *)
