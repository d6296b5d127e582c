(** Online invariant monitor.

    Continuously re-checks the registry properties that
    {!System.check_consistency} asserts only on demand: vgroup sizes
    inside a configured envelope, Byzantine members in the minority of
    every vgroup, no delivery of a broadcast id that was never issued
    or of a body its origin never sent, no duplicate delivery per
    node, and no retired vgroup still
    reachable in the overlay.  Checks run from a periodic engine task
    ({!config.period}) and synchronously from the {!System.audit}
    hook on every reconfiguration and delivery.

    Each violation increments a ["monitor.violation.<kind>"] counter
    in the system's metrics, emits a trace event of the same kind, and
    — with [fail_fast] — raises {!Violation}.  Kinds: [vg_oversize],
    [vg_undersize], [byz_majority], [unknown_bid], [forged_delivery],
    [dup_delivery],
    [retired_reachable], plus two fault-aware kinds for the chaos
    layer: [vg_partitioned] (an active vgroup's live members straddle
    a network partition) and [vg_crashed] (a member is in the crashed
    set).  The fault-aware kinds accrue on every sweep while the fault
    lasts and stop the moment the network heals — the recovery
    verifier ({!Atum_workload.Resilience}) polls {!sweep} for exactly
    that transition. *)

type config = {
  period : float;  (** seconds between full sweeps *)
  s_lo : int;  (** inclusive lower bound on active vgroup size *)
  s_hi : int;  (** inclusive upper bound on active vgroup size *)
  fail_fast : bool;  (** raise {!Violation} on the first violation *)
}

val default_config : Params.t -> config
(** period 5s, size envelope [\[1, 2*gmax\]], no fail-fast.  The
    envelope is enforced only for quiescent vgroups ({!System.idle}) —
    one that a saga holds or has queued a shuffle on is already being
    corrected, and splits/merges re-check the size synchronously when
    they finish. *)

exception Violation of string

type t

val attach : ?config:config -> ?flight:Atum_sim.Flight.t -> System.t -> t
(** Subscribe to the system's audit hook (displacing any previous
    auditor) and schedule the periodic sweep.  The monitor only reads
    simulation state, so attaching it never changes the behaviour of a
    seeded run.  When [flight] is given, the first violation trips the
    flight recorder (before any fail-fast raise unwinds), so the
    postmortem captures the state at the moment of failure. *)

val sweep : t -> int
(** Check every vgroup now (the ground-truth full scan); returns the
    number of new violations. *)

val sweep_dirty : t -> int
(** Incremental sweep: check only vgroups touched since the last
    sweep (the system's dirty log), vgroups hosting a currently
    crashed or partitioned node, and vgroups that violated on the
    previous check (retained until they check clean, so persisting
    faults keep accruing like they do under {!sweep}).  Cost is
    proportional to that set, not the system size — each vgroup
    examined bumps the ["monitor.sweep.checked"] metric.  The
    periodic task {!attach} schedules uses this variant. *)

val violations : t -> (string * int) list
(** Per-kind violation counts, sorted by kind. *)

val total : t -> int

val detach : t -> unit
(** Unsubscribe from the audit hook and let the periodic task lapse. *)
