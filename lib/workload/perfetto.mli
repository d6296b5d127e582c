(** Chrome [trace_event] timeline export (the [atum-cli export-trace]
    subcommand).

    Converts a traced [ATUM_*.json] artifact — or an
    [ATUM_postmortem.json] flight-recorder dump — into JSON loadable
    by Perfetto ([ui.perfetto.dev]) or [chrome://tracing]: saga
    begin/end pairs become complete slices grouped per vgroup,
    broadcast lineage ([broadcast.sent] / [bcast.hop] / [bcast.dup])
    becomes instants grouped per broadcast id, chaos-layer fault spans
    (partition..heal, crash..recover, burst..end — an unhealed span is
    closed at the last event and tagged) become slices, and the
    engine's per-label profile becomes one slice per task label.

    Timestamps are simulated time as integer microseconds, so the
    export is byte-deterministic given a deterministic artifact. *)

val of_artifact : Atum_sim.Artifact.t -> (Atum_util.Json.t, string) result
(** Build the [{displayTimeUnit; traceEvents}] document from the
    trace and profile of a run or postmortem artifact
    ({!Atum_sim.Artifact.traced}); [Error] for the other kinds. *)

val of_events :
  Atum_sim.Trace.event list -> profile:Atum_sim.Engine.label_profile list -> Atum_util.Json.t
(** Convert an explicit event list plus an engine profile. *)

val output_name : string -> string
(** [output_name "dir/ATUM_broadcast.json"] is
    ["ATUM_broadcast.trace.json"]. *)

val write : dir:string -> source:string -> Atum_util.Json.t -> string
(** Write the document to [dir ^ "/" ^ output_name source]; returns
    the path. *)
