(** The run-artifact format: one schema version, one set of typed
    records, one writer and one total decoder for every JSON file a
    run leaves behind.

    - [ATUM_<cmd>.json] ({!Run}): run header, command summary, metrics,
      event trace and engine profile; [chaos] adds the resilience
      summary.
    - [ATUM_timeseries.json] ({!Timeseries}): run header, telemetry
      gauge series and engine profile.
    - [ATUM_postmortem.json] ({!Postmortem}): the flight recorder's
      dump.
    - [BENCH_<fig>.json] ({!Bench}), [ATUM_analyze.json] ({!Analysis})
      and [ATUM_compare.json] ({!Comparison}): typed envelopes around
      rows that differ per figure or per tool.

    The writer is deterministic: same record, same bytes.  The decoder
    never raises.  An absent optional field reads as its default (ids
    [-1], sizes [0], [sample_rate] 1.0); a field of the wrong type, or
    a [schema_version] other than {!schema_version}, is an [Error]
    naming the field's path, e.g. ["trace.events[0].t"]. *)

val schema_version : int
(** 6. *)

(** {1 Records} *)

type build_info = {
  version : string;  (** [atum-cli --version] *)
  git : string;  (** [git describe --always --dirty], or ["unknown"] *)
  seed : int;
  cmdline : string;  (** argv, binary basename first, space-joined *)
}

type header = { cmd : string; seed : int; build_info : build_info }
(** The provenance every CLI run artifact starts with. *)

type series = {
  n : int;
  mean : float;  (** [mean], [p50] and [p99] are 0.0 when [n = 0] *)
  p50 : float;
  p99 : float;
  samples : float list option;  (** the raw samples, when exported *)
}

type metrics = {
  counters : (string * int) list;  (** sorted by name *)
  series : (string * series) list;  (** sorted by name *)
}

type trace = {
  capacity : int;
  total : int;  (** events ever admitted *)
  dropped : int;  (** admitted but no longer in [events] *)
  dropped_by_kind : (string * int) list;
  sample_rate : float;
  sampled_out : int;
  sampled_out_by_kind : (string * int) list;
  admitted_by_kind : (string * int) list;
  events : Trace.event list;  (** oldest first *)
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
  gauges : (string * float list) list;  (** export order, each aligned with [times] *)
}

type trigger = {
  at : float;  (** simulated seconds at trip time *)
  reason : string;  (** e.g. ["monitor.violation.vg_partitioned"] *)
  detail : string;
  node : int;  (** [-1] if none *)
  vgroup : int;  (** [-1] if none *)
  bid : int;  (** [-1] if none *)
}

type flight = {
  sim_time_s : float;
  trigger : trigger option;  (** [None] for an untripped dump *)
  last : trace;
      (** [trace_last]: the newest (up to) [capacity] events, where
          [capacity] is the recorder's window; the counters are the
          ring's, and no per-kind counts are kept *)
  telemetry : telemetry option;
  metrics : metrics;
  profile : profile;
}

type phase_stats = {
  phase : string;  (** "before" | "during" | "after" *)
  broadcasts : int;
  expected : int;
      (** sum over sends of the live correct-member count at send
          time: every correct member is expected to deliver *)
  delivered : int;  (** distinct (node, broadcast) deliveries *)
  success : float;  (** delivered / expected; the "during" dip is the fault's cost *)
}

type heal_record = {
  heal_at : float;  (** simulated time the heal/recover step fired *)
  converged_at : float option;
      (** first poll at which consistency was [Ok] and a monitor sweep
          added zero violations; [None] if the window closed first
          (the next fault step arrived, or the heal timeout expired) *)
  time_to_heal : float option;
}

type restart = {
  node : int;
  restarted_at : float;
  rejoined_at : float option;
  caught_up_at : float option;
  fallback : bool;  (** corrupt store: wiped and fresh-joined *)
  replayed : int;  (** WAL entries replayed *)
}

type resilience = {
  n : int;
  seed : int;
  target_vg : int;  (** vgroup the attackers concentrate on; -1 = none *)
  attackers : int;
  schedule : Fault.schedule;
  faults_applied : int;
  phases : phase_stats list;
  heals : heal_record list;  (** one per heal/recover step, in schedule order *)
  tth_percentiles : (string * float) list;  (** p50/p90/max over converged heals *)
  restarts : restart list;  (** one per cold restart, oldest first *)
  ttr_percentiles : (string * float) list;
      (** p50/p90/max time-to-rejoin (restart to registry membership) *)
  ttc_percentiles : (string * float) list;
      (** p50/p90/max time-to-catch-up (restart to missed broadcasts
          re-delivered) *)
  recovery_fallbacks : int;  (** restarts whose corrupt store fell back to a fresh join *)
  violations_before : (string * int) list;
  violations_during : (string * int) list;  (** new violations while faults ran *)
  violations_after : (string * int) list;  (** new violations after the last heal window *)
  post_heal_deliveries : int;  (** the network's [net.deliver.post_heal] counter *)
  consistency : string;  (** ["ok"], or why the final consistency check failed *)
  converged : bool;
      (** the final heal's window reached a clean poll (or the
          end-of-run check was clean) *)
  postmortem : string option;  (** basename of the dumped postmortem *)
}

type bench = {
  fig : string;
  scale : string;
  seed : int;
  build_info : build_info;
  wall_s : float;
  extra : (string * Atum_util.Json.t) list;  (** figure context, between [wall_s] and [rows] *)
  rows : Atum_util.Json.t list;
}

type t =
  | Run of {
      header : header;
      summary : (string * Atum_util.Json.t) list;  (** command-specific fields *)
      resilience : resilience option;
      metrics : metrics;
      trace : trace;
      profile : profile;
    }
  | Timeseries of { header : header; telemetry : telemetry; profile : profile }
  | Postmortem of flight
  | Bench of bench
  | Analysis of {
      source : string;
      build_info : build_info;
      analysis : (string * Atum_util.Json.t) list;
    }
  | Comparison of { old_file : string; new_file : string; comparison : Atum_util.Json.t }

(** {1 Capturing live state} *)

val metrics_of : ?include_series:bool -> Metrics.t -> metrics
(** Counters plus n/mean/p50/p99 per series; raw samples only with
    [include_series] (default [false]). *)

val trace_of : ?window:int -> Trace.t -> trace
(** The whole ring; with [window], a postmortem's [trace_last] (see
    {!flight}). *)

val profile_of : Engine.t -> profile
val telemetry_of : Telemetry.t -> telemetry

val traced : t -> (trace * metrics * profile) option
(** The trace, metrics and engine profile of a {!Run} or
    {!Postmortem} — the one way [analyze] and [export-trace] get at
    events.  A postmortem's window reads as a trace whose events
    before the window count as dropped.  [None] for the other kinds. *)

(** {1 Encoding and decoding} *)

type 'a codec

val metrics : metrics codec
val trace : trace codec
val profile : profile codec
val telemetry : telemetry codec
val resilience : resilience codec

val encode : 'a codec -> 'a -> Atum_util.Json.t
val decode : 'a codec -> Atum_util.Json.t -> ('a, string) result

val to_json : t -> Atum_util.Json.t
val of_json : Atum_util.Json.t -> (t, string) result

val read_json : string -> (Atum_util.Json.t, string) result
(** Read and parse a JSON file of any version; [Error] on an
    unreadable path (missing, a directory) or a parse error. *)

val load : string -> (t, string) result
(** {!read_json} then {!of_json}.  Never raises. *)

val write : dir:string -> string -> t -> string
(** [write ~dir name t] creates [dir] as needed, writes [dir/name]
    and returns that path. *)
