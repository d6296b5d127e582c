(** Streaming reader of the simulator's trace ring for the traced run.

    At full rate a measured window emits far more events than the
    ring holds, so {!Atum_workload.Analyze.of_trace} on the final ring
    would see only its tail.  The traced run instead drains the ring
    into a sink after every short slice of simulated time (and clears
    it).  The sink keeps exact per-kind emission counts (the ring's
    admitted and level-suppressed counters survive wraparound), the
    hop depth of every first delivery from the [bcast.hop] lineage,
    and saga durations from the [saga.<name>.begin]/[.end] pairs — the
    definitions {!Atum_workload.Analyze} uses. *)

type t

val create : unit -> t

val drain : t -> Atum_sim.Trace.t -> unit
(** Feed every buffered event, add the ring's per-kind counters, then
    clear the ring. *)

val count : t -> string -> int
(** Events of this kind emitted since creation, whether recorded,
    overwritten or suppressed by their level. *)

val hops : t -> float list
(** Hop depth of each first delivery whose lineage survived in the
    ring (0 inside the origin vgroup). *)

val saga_durations : t -> string -> float list
(** Simulated durations of the sagas with this name whose begin and
    end both survived in the ring. *)

val lost : t -> int
(** Recorded events the ring overwrote before a drain reached them. *)
