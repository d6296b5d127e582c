(** Perf-regression diffing between two JSON artifacts (the `atum-cli
    compare` subcommand and the CI bench-baseline gate).

    Flattens both artifacts to (dotted-path, number) pairs — list rows
    keyed by an identifying field (label / config / section / phase /
    protocol / n) when one exists, else by index; provenance
    ([build_info], [seed], [schema_version]) and bulky payloads
    ([trace], [timeseries], [events], ...) excluded — then classifies
    each path's change by the metric name: throughput-like keys are
    higher-better, latency/footprint-like keys lower-better,
    wall-clock and everything unrecognized informational.  A metric
    present in the old artifact but missing from the new one is a
    regression. *)

type direction = Higher_better | Lower_better | Info

type status =
  | Ok_within  (** within threshold, or informational *)
  | Improved  (** moved past the threshold in the good direction *)
  | Regressed  (** moved past the threshold in the bad direction *)
  | Missing  (** in the old artifact only — gate failure *)
  | Added  (** in the new artifact only — informational *)

type delta = {
  key : string;
  old_v : float option;
  new_v : float option;
  rel : float;  (** (new - old) / |old|; 1.0 when old = 0 and new <> 0 *)
  dir : direction;
  status : status;
}

type result = {
  threshold : float;  (** relative, e.g. 0.10 = 10% *)
  deltas : delta list;  (** sorted by key *)
  regressed : int;  (** [Regressed] plus [Missing] *)
  improved : int;
  within : int;
}

val direction_of_key : string -> direction

val run :
  ?threshold:float ->
  old_json:Atum_util.Json.t ->
  new_json:Atum_util.Json.t ->
  unit ->
  result
(** Diff two parsed artifacts.  [threshold] (default 0.10) is the
    relative change beyond which a directional metric counts as
    regressed/improved.  Raises [Invalid_argument] on a negative
    threshold. *)

val regressions : result -> delta list
(** The [Regressed] and [Missing] deltas; non-empty means the gate
    should fail. *)

val to_json : result -> Atum_util.Json.t
(** [{threshold; regressed; improved; within_threshold; deltas}]. *)

val pp : Format.formatter -> result -> unit
(** Summary line plus one line per regression/improvement/missing
    metric. *)
