(** Post-mortem flight recorder.

    A [Flight.t] watches one simulation (engine + trace + metrics +
    optional telemetry) and, when {!trip}ped — by a Monitor violation,
    an unhealed fault span, or explicitly — freezes the evidence into
    a deterministic [ATUM_postmortem.json]: the last-K trace events,
    every telemetry gauge row, the engine's per-label profile, all
    metrics, and the trigger itself.

    The snapshot carries no command line, path, or wall-clock
    provenance, so two same-seed runs dump byte-identical postmortems
    (provided [ATUM_PROF_WALL] is unset, its default).  Only the
    {e first} trip is recorded; later violations still count in
    metrics but do not overwrite the evidence of the original
    failure. *)

val filename : string
(** ["ATUM_postmortem.json"] — the fixed basename of a postmortem. *)

type t

val create :
  ?window:int ->
  ?dir:string ->
  engine:Engine.t ->
  trace:Trace.t ->
  metrics:Metrics.t ->
  unit ->
  t
(** [window] is the last-K trace-event count (default 512).  When
    [dir] is given the recorder is {e armed}: the first {!trip} dumps
    [dir ^ "/" ^ filename] immediately (directories created as
    needed), capturing state at the moment of failure.  Without [dir],
    trips are only recorded.  Raises [Invalid_argument] on a
    non-positive window. *)

val set_telemetry : t -> Telemetry.t -> unit
(** Attach the telemetry sampler whose rows the snapshot includes. *)

val trip :
  t ->
  reason:string ->
  ?detail:string ->
  ?node:int ->
  ?vgroup:int ->
  ?bid:int ->
  unit ->
  unit
(** Record the failure (first trip wins) and, if armed with a [dir],
    write the postmortem right away. *)

val tripped : t -> Artifact.trigger option

val dumps : t -> int
(** Postmortems written so far. *)

val last_path : t -> string option

val snapshot : t -> Artifact.flight
(** The postmortem record an armed {!trip} writes as an
    {!Artifact.Postmortem}; an untripped snapshot has a [null]
    trigger. *)
