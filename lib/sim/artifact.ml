module Json = Atum_util.Json
module Stats = Atum_util.Stats

(* 6: one version for every artifact family (previously report 5,
   telemetry 1, flight 1); the timeseries and telemetry sections lost
   their nested schema_version. *)
let schema_version = 6

type build_info = { version : string; git : string; seed : int; cmdline : string }
type header = { cmd : string; seed : int; build_info : build_info }
type series = { n : int; mean : float; p50 : float; p99 : float; samples : float list option }
type metrics = { counters : (string * int) list; series : (string * series) list }

type trace = {
  capacity : int;
  total : int;
  dropped : int;
  dropped_by_kind : (string * int) list;
  sample_rate : float;
  sampled_out : int;
  sampled_out_by_kind : (string * int) list;
  admitted_by_kind : (string * int) list;
  events : Trace.event list;
}

type profile = {
  wall_clock_enabled : bool;
  events_total : int;
  labels : Engine.label_profile list;
}

type telemetry = {
  period_s : float;
  capacity : int;
  samples_total : int;
  samples_kept : int;
  times : float list;
  gauges : (string * float list) list;
}

type trigger = { at : float; reason : string; detail : string; node : int; vgroup : int; bid : int }

type flight = {
  sim_time_s : float;
  trigger : trigger option;
  last : trace;
  telemetry : telemetry option;
  metrics : metrics;
  profile : profile;
}

type phase_stats = {
  phase : string;
  broadcasts : int;
  expected : int;
  delivered : int;
  success : float;
}

type heal_record = { heal_at : float; converged_at : float option; time_to_heal : float option }

type restart = {
  node : int;
  restarted_at : float;
  rejoined_at : float option;
  caught_up_at : float option;
  fallback : bool;
  replayed : int;
}

type resilience = {
  n : int;
  seed : int;
  target_vg : int;
  attackers : int;
  schedule : Fault.schedule;
  faults_applied : int;
  phases : phase_stats list;
  heals : heal_record list;
  tth_percentiles : (string * float) list;
  restarts : restart list;
  ttr_percentiles : (string * float) list;
  ttc_percentiles : (string * float) list;
  recovery_fallbacks : int;
  violations_before : (string * int) list;
  violations_during : (string * int) list;
  violations_after : (string * int) list;
  post_heal_deliveries : int;
  consistency : string;
  converged : bool;
  postmortem : string option;
}

type bench = {
  fig : string;
  scale : string;
  seed : int;
  build_info : build_info;
  wall_s : float;
  extra : (string * Json.t) list;
  rows : Json.t list;
}

type t =
  | Run of {
      header : header;
      summary : (string * Json.t) list;
      resilience : resilience option;
      metrics : metrics;
      trace : trace;
      profile : profile;
    }
  | Timeseries of { header : header; telemetry : telemetry; profile : profile }
  | Postmortem of flight
  | Bench of bench
  | Analysis of { source : string; build_info : build_info; analysis : (string * Json.t) list }
  | Comparison of { old_file : string; new_file : string; comparison : Json.t }

(* ------------------------------------------------------------------ *)
(* Capturing live state                                                *)
(* ------------------------------------------------------------------ *)

let metrics_of ?(include_series = false) m =
  let snap = Metrics.snapshot m in
  let summary xs : series =
    let n = List.length xs in
    let stat f = if n = 0 then 0.0 else f xs in
    {
      n;
      mean = stat Stats.mean;
      p50 = stat (fun xs -> Stats.percentile xs 50.0);
      p99 = stat (fun xs -> Stats.percentile xs 99.0);
      samples = (if include_series then Some xs else None);
    }
  in
  {
    counters = snap.Metrics.snap_counters;
    series = List.map (fun (k, xs) -> (k, summary xs)) snap.Metrics.snap_series;
  }

let trace_of ?window t : trace =
  let per_kind f = if window = None then f t else [] in
  {
    capacity = Option.value window ~default:(Trace.capacity t);
    total = Trace.total t;
    dropped = Trace.dropped t;
    dropped_by_kind = per_kind Trace.dropped_by_kind;
    sample_rate = Trace.sample_rate t;
    sampled_out = Trace.sampled_out t;
    sampled_out_by_kind = per_kind Trace.sampled_out_by_kind;
    admitted_by_kind = per_kind Trace.admitted_by_kind;
    events = (match window with Some k -> Trace.last_events t k | None -> Trace.events t);
  }

let profile_of e =
  {
    wall_clock_enabled = Prof_clock.enabled;
    events_total = Engine.events_processed e;
    labels = Engine.profile e;
  }

let telemetry_of tel : telemetry =
  {
    period_s = Telemetry.period tel;
    capacity = Telemetry.capacity tel;
    samples_total = Telemetry.samples_total tel;
    samples_kept = Telemetry.samples_kept tel;
    times = Telemetry.times tel;
    gauges = List.map (fun g -> (g, Telemetry.series tel g)) (Telemetry.gauge_names tel);
  }

let traced = function
  | Run r -> Some (r.trace, r.metrics, r.profile)
  | Postmortem f ->
    let dropped = max 0 (f.last.total - List.length f.last.events) in
    Some ({ f.last with dropped }, f.metrics, f.profile)
  | Timeseries _ | Bench _ | Analysis _ | Comparison _ -> None

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

(* Decoders raise [Bad] with the offending path; [decode] is the only
   place it is caught, so nothing escapes the module. *)
exception Bad of string

let bad path fmt =
  Printf.ksprintf (fun m -> raise (Bad (if path = "" then m else path ^ ": " ^ m))) fmt

let at path key = if path = "" then key else path ^ "." ^ key

type 'a codec = { enc : 'a -> Json.t; dec : string -> Json.t -> 'a }

(* A leaf codec: its writer, and a reader for the one JSON case it takes. *)
let leaf enc what take =
  { enc; dec = (fun p j -> match take j with Some x -> x | None -> bad p "expected %s" what) }

let int = leaf (fun n -> Json.Int n) "an integer" (function Json.Int n -> Some n | _ -> None)

(* The writer renders non-finite floats as null. *)
let float =
  leaf (fun f -> Json.Float f) "a number" (function
    | Json.Float f -> Some f
    | Json.Int n -> Some (float_of_int n)
    | Json.Null -> Some Float.nan
    | _ -> None)

let string = leaf (fun s -> Json.String s) "a string" (function Json.String s -> Some s | _ -> None)
let bool = leaf (fun b -> Json.Bool b) "a boolean" (function Json.Bool b -> Some b | _ -> None)

let any = { enc = Fun.id; dec = (fun _ j -> j) }

let list c =
  let dec p = function
    | Json.List xs -> List.mapi (fun i x -> c.dec (Printf.sprintf "%s[%d]" p i) x) xs
    | _ -> bad p "expected a list"
  in
  { enc = (fun xs -> Json.List (List.map c.enc xs)); dec }

let nullable c =
  let enc = function Some x -> c.enc x | None -> Json.Null in
  { enc; dec = (fun p -> function Json.Null -> None | j -> Some (c.dec p j)) }

(* An object being decoded: its path and members. *)
type obj = { path : string; members : (string * Json.t) list }

let obj path = function Json.Obj members -> { path; members } | _ -> bad path "expected an object"

let assoc c =
  let dec p j = List.map (fun (k, v) -> (k, c.dec (at p k) v)) (obj p j).members in
  { enc = (fun kvs -> Json.Obj (List.map (fun (k, v) -> (k, c.enc v)) kvs)); dec }

(* A record codec is built from its members in document order: [put]
   writes them, [take] reads them in the same order, so the first
   wrong member named in an error is the first in the file. *)
type ('r, 'a) fields = { put : 'r -> (string * Json.t) list; take : obj -> 'a }

let return k = { put = (fun _ -> []); take = (fun _ -> k) }

let ( <*> ) f x =
  let take o =
    let k = f.take o in
    k (x.take o)
  in
  { put = (fun r -> f.put r @ x.put r); take }

(* [default] is what an absent member reads as; [omit r] leaves the
   member out of [r]'s encoding. *)
let field ?default ?(omit = fun _ -> false) key get c =
  let take o =
    match (List.assoc_opt key o.members, default) with
    | Some j, _ -> c.dec (at o.path key) j
    | None, Some d -> d
    | None, None -> bad (at o.path key) "missing"
  in
  { put = (fun r -> if omit r then [] else [ (key, c.enc (get r)) ]); take }

let id key get = field ~default:(-1) ~omit:(fun r -> get r < 0) key get int
let record f = { enc = (fun r -> Json.Obj (f.put r)); dec = (fun p j -> f.take (obj p j)) }
let counts = assoc int

let build_info =
  record
    (return (fun version git seed cmdline -> { version; git; seed; cmdline })
    <*> field "version" (fun (b : build_info) -> b.version) string
    <*> field "git" (fun (b : build_info) -> b.git) string
    <*> field "seed" (fun (b : build_info) -> b.seed) int
    <*> field "cmdline" (fun (b : build_info) -> b.cmdline) string)

let header =
  return (fun cmd seed build_info -> { cmd; seed; build_info })
  <*> field "cmd" (fun (h : header) -> h.cmd) string
  <*> field "seed" (fun (h : header) -> h.seed) int
  <*> field "build_info" (fun (h : header) -> h.build_info) build_info

(* The statistics of an empty series are left out. *)
let series =
  let stat key get = field ~default:0.0 ~omit:(fun (s : series) -> s.n = 0) key get float in
  record
    (return (fun n mean p50 p99 samples : series -> { n; mean; p50; p99; samples })
    <*> field "n" (fun (s : series) -> s.n) int
    <*> stat "mean" (fun s -> s.mean)
    <*> stat "p50" (fun s -> s.p50)
    <*> stat "p99" (fun s -> s.p99)
    <*> field ~default:None ~omit:(fun s -> s.samples = None) "samples" (fun s -> s.samples)
          (nullable (list float)))

let metrics =
  record
    (return (fun counters series -> { counters; series })
    <*> field ~default:[] "counters" (fun m -> m.counters) counts
    <*> field ~default:[] "series" (fun m -> m.series) (assoc series))

(* Negative ids and zero sizes are left out. *)
let event =
  record
    (return (fun time kind node peer vgroup size bid span parent cycle ->
         { Trace.time; kind; node; peer; vgroup; size; bid; span; parent; cycle })
    <*> field "t" (fun (e : Trace.event) -> e.time) float
    <*> field "kind" (fun (e : Trace.event) -> e.kind) string
    <*> id "node" (fun (e : Trace.event) -> e.node)
    <*> id "peer" (fun (e : Trace.event) -> e.peer)
    <*> id "vgroup" (fun (e : Trace.event) -> e.vgroup)
    <*> field ~default:0 ~omit:(fun (e : Trace.event) -> e.size = 0) "size" (fun e -> e.size) int
    <*> id "bid" (fun (e : Trace.event) -> e.bid)
    <*> id "span" (fun (e : Trace.event) -> e.span)
    <*> id "parent" (fun (e : Trace.event) -> e.parent)
    <*> id "cycle" (fun (e : Trace.event) -> e.cycle))

let trace =
  let by_kind key get = field ~default:[] key get counts in
  record
    (return
       (fun capacity total dropped dropped_by_kind sample_rate sampled_out sampled_out_by_kind
            admitted_by_kind events : trace ->
         { capacity; total; dropped; dropped_by_kind; sample_rate; sampled_out;
           sampled_out_by_kind; admitted_by_kind; events })
    <*> field ~default:0 "capacity" (fun (t : trace) -> t.capacity) int
    <*> field ~default:0 "total" (fun (t : trace) -> t.total) int
    <*> field ~default:0 "dropped" (fun (t : trace) -> t.dropped) int
    <*> by_kind "dropped_by_kind" (fun t -> t.dropped_by_kind)
    <*> field ~default:1.0 "sample_rate" (fun (t : trace) -> t.sample_rate) float
    <*> field ~default:0 "sampled_out" (fun (t : trace) -> t.sampled_out) int
    <*> by_kind "sampled_out_by_kind" (fun t -> t.sampled_out_by_kind)
    <*> by_kind "admitted_by_kind" (fun t -> t.admitted_by_kind)
    <*> field "events" (fun (t : trace) -> t.events) (list event))

(* A postmortem's [trace_last]: the window in place of the capacity,
   the kept count, and no per-kind counts. *)
let window =
  record
    (return (fun capacity (_ : int) total dropped sample_rate sampled_out events : trace ->
         { capacity; total; dropped; dropped_by_kind = []; sample_rate; sampled_out;
           sampled_out_by_kind = []; admitted_by_kind = []; events })
    <*> field "window" (fun (t : trace) -> t.capacity) int
    <*> field "kept" (fun (t : trace) -> List.length t.events) int
    <*> field "total" (fun (t : trace) -> t.total) int
    <*> field "dropped" (fun (t : trace) -> t.dropped) int
    <*> field ~default:1.0 "sample_rate" (fun (t : trace) -> t.sample_rate) float
    <*> field ~default:0 "sampled_out" (fun (t : trace) -> t.sampled_out) int
    <*> field "events" (fun (t : trace) -> t.events) (list event))

let label =
  let bucket =
    record
      (return (fun b n -> (b, n)) <*> field "bucket" fst int <*> field "count" snd int)
  in
  let get f (l : Engine.label_profile) = f l in
  record
    (return (fun label events wall_self_s vt_first vt_last delay_hist ->
         { Engine.label; events; wall_self_s; vt_first; vt_last; delay_hist })
    <*> field "label" (get (fun l -> l.label)) string
    <*> field "events" (get (fun l -> l.events)) int
    <*> field "wall_self_s" (get (fun l -> l.wall_self_s)) float
    <*> field "vt_first" (get (fun l -> l.vt_first)) float
    <*> field "vt_last" (get (fun l -> l.vt_last)) float
    <*> field ~default:[] "delay_hist" (get (fun l -> l.delay_hist)) (list bucket))

let profile =
  record
    (return (fun wall_clock_enabled events_total labels ->
         { wall_clock_enabled; events_total; labels })
    <*> field ~default:false "wall_clock_enabled" (fun p -> p.wall_clock_enabled) bool
    <*> field ~default:0 "events_total" (fun p -> p.events_total) int
    <*> field "labels" (fun p -> p.labels) (list label))

let telemetry =
  let t =
    record
      (return (fun period_s capacity samples_total samples_kept times gauges : telemetry ->
           { period_s; capacity; samples_total; samples_kept; times; gauges })
      <*> field "period_s" (fun (t : telemetry) -> t.period_s) float
      <*> field "capacity" (fun (t : telemetry) -> t.capacity) int
      <*> field "samples_total" (fun (t : telemetry) -> t.samples_total) int
      <*> field "samples_kept" (fun (t : telemetry) -> t.samples_kept) int
      <*> field "times" (fun (t : telemetry) -> t.times) (list float)
      <*> field "gauges" (fun (t : telemetry) -> t.gauges) (assoc (list float)))
  in
  let dec p j =
    let r = t.dec p j in
    let want = List.length r.times in
    List.iter
      (fun (g, xs) ->
        if List.length xs <> want then
          bad (at (at p "gauges") g) "%d samples for %d timestamps" (List.length xs) want)
      r.gauges;
    r
  in
  { t with dec }

let trigger =
  record
    (return (fun at reason detail node vgroup bid -> { at; reason; detail; node; vgroup; bid })
    <*> field "at_s" (fun g -> g.at) float
    <*> field "reason" (fun g -> g.reason) string
    <*> field "detail" (fun g -> g.detail) string
    <*> id "node" (fun (g : trigger) -> g.node)
    <*> id "vgroup" (fun (g : trigger) -> g.vgroup)
    <*> id "bid" (fun (g : trigger) -> g.bid))

let flight =
  return (fun sim_time_s trigger last telemetry metrics profile ->
      { sim_time_s; trigger; last; telemetry; metrics; profile })
  <*> field "sim_time_s" (fun f -> f.sim_time_s) float
  <*> field "trigger" (fun (f : flight) -> f.trigger) (nullable trigger)
  <*> field "trace_last" (fun f -> f.last) window
  <*> field "telemetry" (fun (f : flight) -> f.telemetry) (nullable telemetry)
  <*> field "metrics" (fun (f : flight) -> f.metrics) metrics
  <*> field "profile" (fun (f : flight) -> f.profile) profile

let fault_entry =
  let enc (e : Fault.entry) =
    let params =
      match e.step with
      | Fault.Partition groups -> [ ("groups", (list (list int)).enc groups) ]
      | Heal -> []
      | Crash nodes | Recover nodes -> [ ("nodes", (list int).enc nodes) ]
      | Loss_burst { p; duration } -> [ ("p", Json.Float p); ("duration_s", Json.Float duration) ]
      | Latency_spike { factor; duration } | Capacity_degrade { factor; duration } ->
        [ ("factor", Json.Float factor); ("duration_s", Json.Float duration) ]
      | Restart { nodes; down } -> [ ("nodes", (list int).enc nodes); ("down_s", Json.Float down) ]
    in
    let step = Json.String (Fault.step_name e.step) in
    Json.Obj (("after_s", Json.Float e.after) :: ("step", step) :: params)
  in
  let dec p j : Fault.entry =
    let o = obj p j in
    let get key c = (field key Fun.id c).take o in
    let after = get "after_s" float in
    let step : Fault.step =
      match get "step" string with
      | "partition" -> Partition (get "groups" (list (list int)))
      | "heal" -> Heal
      | "crash" -> Crash (get "nodes" (list int))
      | "recover" -> Recover (get "nodes" (list int))
      | "loss_burst" ->
        let p = get "p" float in
        Fault.Loss_burst { p; duration = get "duration_s" float }
      | "latency_spike" ->
        let factor = get "factor" float in
        Fault.Latency_spike { factor; duration = get "duration_s" float }
      | "capacity_degrade" ->
        let factor = get "factor" float in
        Fault.Capacity_degrade { factor; duration = get "duration_s" float }
      | "restart" ->
        let nodes = get "nodes" (list int) in
        Fault.Restart { nodes; down = get "down_s" float }
      | s -> bad (at p "step") "unknown fault step %S" s
    in
    { after; step }
  in
  { enc; dec }

let resilience =
  let phase =
    record
      (return (fun phase broadcasts expected delivered success ->
           { phase; broadcasts; expected; delivered; success })
      <*> field "phase" (fun p -> p.phase) string
      <*> field "broadcasts" (fun p -> p.broadcasts) int
      <*> field "expected_deliveries" (fun p -> p.expected) int
      <*> field "observed_deliveries" (fun p -> p.delivered) int
      <*> field "success" (fun p -> p.success) float)
  in
  let heal =
    record
      (return (fun heal_at converged_at time_to_heal -> { heal_at; converged_at; time_to_heal })
      <*> field "heal_at_s" (fun h -> h.heal_at) float
      <*> field "converged_at_s" (fun h -> h.converged_at) (nullable float)
      <*> field "time_to_heal_s" (fun h -> h.time_to_heal) (nullable float))
  in
  let restart =
    record
      (return (fun node restarted_at rejoined_at caught_up_at fallback replayed ->
           { node; restarted_at; rejoined_at; caught_up_at; fallback; replayed })
      <*> field "node" (fun (x : restart) -> x.node) int
      <*> field "restarted_at_s" (fun x -> x.restarted_at) float
      <*> field "rejoined_at_s" (fun x -> x.rejoined_at) (nullable float)
      <*> field "caught_up_at_s" (fun x -> x.caught_up_at) (nullable float)
      <*> field "fallback" (fun x -> x.fallback) bool
      <*> field "replayed_entries" (fun x -> x.replayed) int)
  in
  let violations =
    record
      (return (fun b d a -> (b, d, a))
      <*> field "before" (fun (b, _, _) -> b) counts
      <*> field "during" (fun (_, d, _) -> d) counts
      <*> field "after" (fun (_, _, a) -> a) counts)
  in
  let get f (r : resilience) = f r in
  record
    (return
       (fun n seed target_vg attackers schedule faults_applied phases heals tth_percentiles
            restarts ttr_percentiles ttc_percentiles recovery_fallbacks
            (violations_before, violations_during, violations_after) post_heal_deliveries
            consistency converged postmortem ->
         { n; seed; target_vg; attackers; schedule; faults_applied; phases; heals;
           tth_percentiles; restarts; ttr_percentiles; ttc_percentiles; recovery_fallbacks;
           violations_before; violations_during; violations_after; post_heal_deliveries;
           consistency; converged; postmortem })
    <*> field "n" (get (fun r -> r.n)) int
    <*> field "seed" (get (fun r -> r.seed)) int
    <*> field "target_vg" (get (fun r -> r.target_vg)) int
    <*> field "attackers" (get (fun r -> r.attackers)) int
    <*> field "schedule" (get (fun r -> r.schedule)) (list fault_entry)
    <*> field "faults_applied" (get (fun r -> r.faults_applied)) int
    <*> field "phases" (get (fun r -> r.phases)) (list phase)
    <*> field "heals" (get (fun r -> r.heals)) (list heal)
    <*> field "time_to_heal_percentiles" (get (fun r -> r.tth_percentiles)) (assoc float)
    <*> field "restarts" (get (fun r -> r.restarts)) (list restart)
    <*> field "time_to_rejoin_percentiles" (get (fun r -> r.ttr_percentiles)) (assoc float)
    <*> field "time_to_catchup_percentiles" (get (fun r -> r.ttc_percentiles)) (assoc float)
    <*> field "recovery_fallbacks" (get (fun r -> r.recovery_fallbacks)) int
    <*> field "violations"
          (get (fun r -> (r.violations_before, r.violations_during, r.violations_after)))
          violations
    <*> field "post_heal_deliveries" (get (fun r -> r.post_heal_deliveries)) int
    <*> field "consistency" (get (fun r -> r.consistency)) string
    <*> field "converged" (get (fun r -> r.converged)) bool
    <*> field "postmortem" (get (fun r -> r.postmortem)) (nullable string))

(* ------------------------------------------------------------------ *)
(* Whole artifacts                                                     *)
(* ------------------------------------------------------------------ *)

let to_json t =
  let member key c x = [ (key, c.enc x) ] in
  let body =
    match t with
    | Run r ->
      header.put r.header @ r.summary
      @ Option.fold ~none:[] ~some:(member "resilience" resilience) r.resilience
      @ member "metrics" metrics r.metrics @ member "trace" trace r.trace
      @ member "profile" profile r.profile
    | Timeseries r ->
      header.put r.header @ member "timeseries" telemetry r.telemetry
      @ member "profile" profile r.profile
    | Postmortem f -> ("artifact", Json.String "postmortem") :: flight.put f
    | Bench b ->
      [ ("fig", Json.String b.fig); ("scale", Json.String b.scale); ("seed", Json.Int b.seed) ]
      @ member "build_info" build_info b.build_info
      @ [ ("wall_s", Json.Float b.wall_s) ]
      @ b.extra @ [ ("rows", Json.List b.rows) ]
    | Analysis a ->
      [ ("cmd", Json.String "analyze"); ("source", Json.String a.source) ]
      @ member "build_info" build_info a.build_info @ a.analysis
    | Comparison c ->
      [
        ("cmd", Json.String "compare");
        ("old", Json.String c.old_file);
        ("new", Json.String c.new_file);
        ("compare", c.comparison);
      ]
  in
  Json.Obj (("schema_version", Json.Int schema_version) :: body)

let dec_t path j =
  let o = obj path j in
  let get key c = (field key Fun.id c).take o in
  (* Members not named in [known], in document order: the untyped
     command-, figure- or tool-specific part of an envelope. *)
  let others known = List.filter (fun (k, _) -> not (List.mem k known)) o.members in
  let v = get "schema_version" int in
  if v <> schema_version then
    bad (at path "schema_version") "unsupported version %d (this build reads %d)" v
      schema_version;
  if List.mem_assoc "artifact" o.members then
    match get "artifact" string with
    | "postmortem" -> Postmortem (flight.take o)
    | s -> bad (at path "artifact") "unknown artifact %S" s
  else if List.mem_assoc "fig" o.members then begin
    let fig = get "fig" string in
    let scale = get "scale" string in
    let seed = get "seed" int in
    let build_info = get "build_info" build_info in
    let wall_s = get "wall_s" float in
    let rows = get "rows" (list any) in
    let extra =
      others [ "schema_version"; "fig"; "scale"; "seed"; "build_info"; "wall_s"; "rows" ]
    in
    Bench { fig; scale; seed; build_info; wall_s; extra; rows }
  end
  else
    match get "cmd" string with
    | "analyze" ->
      let source = get "source" string in
      let build_info = get "build_info" build_info in
      let analysis = others [ "schema_version"; "cmd"; "source"; "build_info" ] in
      Analysis { source; build_info; analysis }
    | "compare" ->
      let old_file = get "old" string in
      let new_file = get "new" string in
      Comparison { old_file; new_file; comparison = get "compare" any }
    | _ ->
      let header = header.take o in
      if List.mem_assoc "timeseries" o.members then begin
        let telemetry = get "timeseries" telemetry in
        Timeseries { header; telemetry; profile = get "profile" profile }
      end
      else begin
        let resilience = (field ~default:None "resilience" Fun.id (nullable resilience)).take o in
        let metrics = get "metrics" metrics in
        let trace = get "trace" trace in
        let profile = get "profile" profile in
        let known =
          [ "schema_version"; "cmd"; "seed"; "build_info"; "resilience"; "metrics"; "trace";
            "profile" ]
        in
        Run { header; summary = others known; resilience; metrics; trace; profile }
      end

let encode c x = c.enc x
let decode c j = try Ok (c.dec "" j) with Bad m -> Error m
let of_json = decode { enc = to_json; dec = dec_t }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Json.of_string s

let load path = Result.bind (read_json path) of_json

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write ~dir name t =
  mkdir_p dir;
  let path = Filename.concat dir name in
  Json.write_file ~path (to_json t);
  path
