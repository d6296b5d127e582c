(** Benchmark rows and terminal rendering of run artifacts.

    The bench harness builds [BENCH_<fig>.json] rows with
    {!growth_row} and {!latency_row} (the envelope is an
    {!Atum_sim.Artifact.Bench}); [atum-cli report] and [atum-cli chaos]
    print artifacts with the renderers below. *)

val growth_row : protocol:string -> target:int -> Growth.result -> Atum_util.Json.t
(** One Fig-6/Fig-13 row: final size, duration, join-latency
    percentiles, exchange counts, engine event count, the full
    (t, size) curve and the run's telemetry. *)

val latency_row : label:string -> Latency_exp.result -> Atum_util.Json.t
(** One Fig-8 CDF row: sample count, p10/p50/p90/p99/max latency and
    delivery fraction ([null] percentiles when there are no samples). *)

val pp_resilience : Format.formatter -> Atum_sim.Artifact.resilience -> unit
(** The chaos experiment's summary: deployment, fault schedule,
    per-phase delivery success, heals, violations, restarts and the
    final verdict.  [atum-cli chaos] prints a live run through it and
    [atum-cli report] a written [ATUM_resilience.json], so both print
    the same lines. *)

val render : Format.formatter -> Atum_sim.Artifact.t -> (unit, string) result
(** Render an artifact as text after its provenance header: a run's
    engine profile table (sorted by wall-clock self-time, event count
    breaking ties), a timeseries or postmortem's gauge sparklines with
    min/mean/max/last plus the profile, a resilience artifact through
    {!pp_resilience}.  [Error] for bench, analyze and compare
    artifacts. *)
