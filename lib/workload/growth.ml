module Atum = Atum_core.Atum
module System = Atum_core.System

type point = { time : float; size : int }

type result = {
  curve : point list;
  final_size : int;
  duration : float;
  reached_target : bool;
  exchanges_completed : int;
  exchanges_suppressed : int;
  completion_rate : float;
  join_latency_p50 : float;
  join_latency_p90 : float;
  events_processed : int;
  consistency : (unit, string) Stdlib.result;
  timeseries : Atum_sim.Artifact.telemetry option;
}

let live_ids atum =
  List.map (fun (n : System.node) -> n.System.id) (System.live_nodes (Atum.system atum))

let run ?params ?(join_rate_per_min = 0.08) ?(time_limit = 20_000.0) ?(sample_every = 30.0)
    ?(telemetry = true) ~target ~seed () =
  let params =
    match params with Some p -> p | None -> Atum_core.Params.for_system_size ~seed target
  in
  let atum = Atum.create ~params () in
  if telemetry then
    (* Telemetry shares the curve's sampling period, so the exported
       series line up with the figure's own growth curve. *)
    ignore (Atum.attach_telemetry ~period:sample_every atum : Atum_sim.Telemetry.t);
  let rng = Atum_util.Rng.create (seed + 41) in
  ignore (Atum.bootstrap atum);
  let curve = ref [ { time = 0.0; size = 1 } ] in
  let carry = ref 0.0 in
  let tick = 10.0 in
  let next_sample = ref sample_every in
  while Atum.size atum < target && Atum.now atum < time_limit do
    let size = Atum.size atum in
    (* Joins arrive in proportion to the current size — the paper's
       percent-per-minute open loop — with a floor of one join per
       tick so the system can leave the single-node state. *)
    carry := !carry +. Float.max 1.0 (join_rate_per_min *. float_of_int size *. tick /. 60.0);
    let to_issue = int_of_float !carry in
    carry := !carry -. float_of_int to_issue;
    let contacts = live_ids atum in
    for _ = 1 to min to_issue (target - size) do
      ignore (Atum.join atum ~contact:(Atum_util.Rng.pick rng contacts) ())
    done;
    Atum.run_for atum tick;
    if Atum.now atum >= !next_sample then begin
      curve := { time = Atum.now atum; size = Atum.size atum } :: !curve;
      next_sample := !next_sample +. sample_every
    end
  done;
  let duration = Atum.now atum in
  curve := { time = duration; size = Atum.size atum } :: !curve;
  let m = Atum.metrics atum in
  let completed = Atum_sim.Metrics.counter m "exchange.completed" in
  let suppressed = Atum_sim.Metrics.counter m "exchange.suppressed" in
  let total = completed + suppressed in
  let join_lats = Atum_sim.Metrics.samples m "join.latency" in
  let pct p = if join_lats = [] then 0.0 else Atum_util.Stats.percentile join_lats p in
  {
    curve = List.rev !curve;
    final_size = Atum.size atum;
    duration;
    reached_target = Atum.size atum >= target;
    exchanges_completed = completed;
    exchanges_suppressed = suppressed;
    completion_rate =
      (if total = 0 then 1.0 else float_of_int completed /. float_of_int total);
    join_latency_p50 = pct 50.0;
    join_latency_p90 = pct 90.0;
    events_processed = Atum_sim.Engine.events_processed (Atum.engine atum);
    consistency = System.check_consistency (Atum.system atum);
    timeseries = Option.map Atum_sim.Artifact.telemetry_of (Atum.telemetry atum);
  }
