(** Recovery verification under scripted chaos (the `atum-cli chaos`
    experiment).

    Runs an {!Atum_sim.Fault} schedule — plus, optionally, targeted
    equivocating attackers ({!Atum_core.System.Target_vgroup}) —
    against a grown deployment while a steady broadcast workload
    measures delivery success before, during and after the faults.
    After each heal step a convergence checker polls
    {!Atum_core.System.check_consistency} and a fresh
    {!Atum_core.Monitor.sweep} until both come back clean, recording
    the time-to-heal.  Same seed and schedule produce byte-identical
    results. *)

type result = Atum_sim.Artifact.resilience
(** The [resilience] section of [ATUM_resilience.json]; its
    [postmortem] is the basename of the dump the flight recorder
    wrote, when one was armed and tripped. *)

val default_schedule : Builder.built -> Atum_sim.Fault.schedule
(** The acceptance scenario, built against the live registry:
    partition half of the largest vgroup's replicas at t+10s, crash
    one correct member in each of two other vgroups at t+30s, heal at
    t+150s, recover at t+170s. *)

val default_restart_schedule : Builder.built -> Atum_sim.Fault.schedule
(** {!default_schedule} with the two crash victims cold-restarted
    instead of crashed-and-recovered: down at t+30s, back at t+170s
    through [System.restart] (durable recovery, rejoin, catch-up). *)

val run :
  ?messages_per_phase:int ->
  ?gap:float ->
  ?attackers:int ->
  ?schedule:Atum_sim.Fault.schedule ->
  ?heal_timeout:float ->
  ?drain:float ->
  ?flight_dir:string ->
  ?restart:bool ->
  ?corrupt_log:bool ->
  Builder.built ->
  seed:int ->
  unit ->
  result
(** Attach a fresh monitor (displacing any earlier auditor — build
    with [~monitor:false]), spawn [attackers] (default 0)
    [Target_vgroup]+[Equivocate] adversaries aimed at the largest
    vgroup, install [schedule] (default {!default_schedule}), and
    drive [messages_per_phase] (default 10) broadcasts spaced [gap]
    (default 5s) through each phase.  Convergence polling after each
    heal is bounded by [heal_timeout] (default 600s) and by the next
    scheduled fault step; the run ends with a [drain] (default 180s)
    quiet period before the final consistency check.

    When [flight_dir] is given (or the build carried an armed
    recorder), an {!Atum_sim.Flight} recorder is wired into the
    monitor: the first violation dumps [ATUM_postmortem.json] into
    the directory, and a run that ends with an unconverged heal trips
    the recorder with reason ["fault.unhealed"].

    [restart] (default false) attaches an in-sim durable store and
    swaps the default schedule for {!default_restart_schedule}, so the
    victims come back through cold restart + WAL replay + catch-up.
    [corrupt_log] (default false, implies the store) additionally
    flips one byte in the first victim's WAL while it is down, forcing
    its restart into the wipe-and-fresh-join fallback (counted in
    [recovery_fallbacks]).  A restarted node whose delivered-set was
    lost (fallback case) re-delivers, through catch-up, broadcasts it
    had already delivered; each (node, broadcast) pair counts once, so
    those re-deliveries do not count again. *)
