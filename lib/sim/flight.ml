let filename = "ATUM_postmortem.json"

(* All recorder state lives in this instance record — no module-level
   mutables, so concurrent engines each own an independent recorder. *)
type t = {
  engine : Engine.t;
  trace : Trace.t;
  metrics : Metrics.t;
  mutable telemetry : Telemetry.t option;
  window : int;
  dir : string option; (* auto-dump directory, if armed for dumping *)
  mutable trigger : Artifact.trigger option;
  mutable dumps : int;
  mutable last_path : string option;
}

let create ?(window = 512) ?dir ~engine ~trace ~metrics () =
  if window <= 0 then invalid_arg "Flight.create: window must be positive";
  {
    engine;
    trace;
    metrics;
    telemetry = None;
    window;
    dir;
    trigger = None;
    dumps = 0;
    last_path = None;
  }

let set_telemetry t tel = t.telemetry <- Some tel
let tripped t = t.trigger
let dumps t = t.dumps
let last_path t = t.last_path

(* The snapshot deliberately carries no command line, output directory
   or wall-clock provenance: two same-seed runs must produce
   byte-identical postmortems regardless of where they were launched
   from.  (Engine wall profiling is off unless ATUM_PROF_WALL is set;
   with it set, wall_self_s fields naturally differ between runs.) *)
let snapshot t : Artifact.flight =
  {
    sim_time_s = Engine.now t.engine;
    trigger = t.trigger;
    last = Artifact.trace_of ~window:t.window t.trace;
    telemetry = Option.map Artifact.telemetry_of t.telemetry;
    metrics = Artifact.metrics_of t.metrics;
    profile = Artifact.profile_of t.engine;
  }

let trip t ~reason ?(detail = "") ?(node = -1) ?(vgroup = -1) ?(bid = -1) () =
  match t.trigger with
  | Some _ -> () (* first trigger wins; later violations are in metrics *)
  | None ->
    t.trigger <- Some { Artifact.at = Engine.now t.engine; reason; detail; node; vgroup; bid };
    match t.dir with
    | Some dir ->
      t.last_path <- Some (Artifact.write ~dir filename (Artifact.Postmortem (snapshot t)));
      t.dumps <- t.dumps + 1
    | None -> ()
