(** Shared experiment scaffolding: grow Atum deployments to a target
    size and place Byzantine nodes, as the evaluation section does
    before each measurement. *)

type built = {
  atum : Atum_core.Atum.t;
  first : Atum_core.Atum.node_id;  (** the bootstrap node *)
  byzantine : Atum_core.Atum.node_id list;
  flight : Atum_sim.Flight.t option;
      (** the postmortem recorder, when a monitor or dump dir armed one *)
}

val grow :
  ?params:Atum_core.Params.t ->
  ?net_config:Atum_sim.Network.config ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?sample_rate:float ->
  ?monitor:bool ->
  ?flight_dir:string ->
  ?telemetry:bool ->
  ?telemetry_period:float ->
  ?byzantine:int ->
  ?batch:int ->
  ?settle:float ->
  n:int ->
  seed:int ->
  unit ->
  built
(** Bootstrap and grow a deployment to [n] live members by joining
    nodes in small batches through random contacts, letting each batch
    settle, then mark [byzantine] random non-bootstrap members as
    quiet-Byzantine (§6.1.3). Parameters default to
    {!Atum_core.Params.for_system_size}.  [trace] (default [false])
    enables the deployment's structured event trace before growth
    starts, with [trace_capacity] ring slots (default 65536) and, when
    [sample_rate] is
    given, that fraction of [Sampled]-level kinds admitted
    ({!Atum_sim.Trace.set_sample_rate}); [monitor] (default [false])
    attaches an {!Atum_core.Monitor} with the default config, whose
    [monitor.violation.*] counters land in the deployment's metrics;
    when [monitor] is on or [flight_dir] is given, an
    {!Atum_sim.Flight} recorder is created (armed to auto-dump
    [ATUM_postmortem.json] into [flight_dir] if given) and wired into
    the monitor; [telemetry] (default [true]) attaches the standard
    sim-time gauge set ({!Atum_core.Atum.attach_telemetry}) sampling
    every [telemetry_period] simulated seconds, so every experiment
    gets time-indexed series for free. *)

val random_member :
  built -> Atum_util.Rng.t -> Atum_core.Atum.node_id
(** A uniformly random live member (possibly Byzantine). *)

val correct_members : built -> Atum_core.Atum.node_id list
