(** Open-loop growth workload: Fig 6 (growth speed) and Fig 13
    (exchange completion rate vs. join rate). *)

type point = { time : float; size : int }

type result = {
  curve : point list;  (** system size sampled over simulated time *)
  final_size : int;
  duration : float;  (** simulated seconds to reach the target *)
  reached_target : bool;
  exchanges_completed : int;
  exchanges_suppressed : int;
  completion_rate : float;  (** completed / (completed + suppressed) *)
  join_latency_p50 : float;  (** seconds from request to installation *)
  join_latency_p90 : float;
  events_processed : int;  (** simulator events the run consumed *)
  consistency : (unit, string) Stdlib.result;
      (** [System.check_consistency] at the end of the run *)
  timeseries : Atum_sim.Artifact.telemetry option;
      (** the run's gauge series
          (sampled every [sample_every]); [None] when [telemetry] was
          disabled *)
}

val run :
  ?params:Atum_core.Params.t ->
  ?join_rate_per_min:float ->
  ?time_limit:float ->
  ?sample_every:float ->
  ?telemetry:bool ->
  target:int ->
  seed:int ->
  unit ->
  result
(** Grow a deployment from one node to [target], issuing joins at
    [join_rate_per_min] (default 0.08 = the paper's 8%) of the current
    system size per simulated minute (at least one per tick, so growth
    is exponential as in §6.1.1). *)
