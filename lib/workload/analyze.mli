(** Post-hoc causal analysis of a traced run.

    Reconstructs per-broadcast dissemination trees from the
    ["bcast.hop"] lineage events, first-delivery latency and
    redundancy from the delivery events, per-saga duration percentiles
    from the ["saga.*.begin"/".end"] span pairs, and the
    invariant-violation summary from the ["monitor.violation.*"]
    metrics counters.  Consumes either a live trace (allocation-free,
    via [Trace.iter]) or a traced {!Atum_sim.Artifact.t}.

    The trace ring drops its oldest events when full, so results are
    best-effort by construction: bids whose ["broadcast.sent"] root
    was overwritten are counted as [orphan_bids], hops whose sender
    depth is unknown as [incomplete_hops], and the per-kind dropped
    counts are carried through. *)

type tree = {
  bid : int;
  origin : int;  (** broadcasting node, [-1] if unknown *)
  root_vg : int;  (** origin vgroup, [-1] if unknown *)
  sent_at : float;
  deliveries : int;
  dups : int;  (** redundant receives of this bid *)
  depth0 : int;  (** deliveries in the origin vgroup (SMR phase) *)
  max_depth : int;  (** deepest gossip hop in the tree *)
  incomplete_hops : int;  (** hops whose sender depth was unknown *)
}

type saga_stats = {
  saga : string;
  completed : int;
  unmatched : int;  (** begun but never ended within the trace window *)
  d_p50 : float;
  d_p90 : float;
  d_max : float;
}

type result = {
  trees : tree list;  (** sorted by bid; only bids with a known root *)
  orphan_bids : int;  (** bids with hops/deliveries but no root event *)
  deliveries : int;
  dups : int;
  redundancy : float;  (** dups / deliveries *)
  hop_hist : (int * int) list;  (** depth -> first-delivery count *)
  latency_cdf : (float * float) list;  (** empirical first-delivery CDF *)
  latency_p : (string * float) list;  (** p50/p90/p99/max *)
  sagas : saga_stats list;  (** sorted by saga name *)
  violations : (string * int) list;
      (** per kind, the max of the [monitor.violation.*] metrics
          counter and the trace evidence (violation events in the
          window plus those the ring dropped) — the counters alone can
          undercount when a workload clears the metrics mid-run *)
  violations_total : int;
  byzantine_events : (string * int) list;
      (** adversary activity seen in the trace window, by full kind
          ([byzantine.equivocate], [byzantine.selective_drop],
          [byzantine.target.landed], ...), sorted *)
  fault_events : (string * int) list;
      (** injected chaos-layer faults ([fault.partition],
          [fault.heal], [fault.crash], ...), sorted *)
  events_seen : int;
  dropped_total : int;
      (** events the trace does not hold: overwritten by the ring or,
          for a postmortem, recorded before its window *)
  dropped_by_kind : (string * int) list;
  window : bool;
      (** the trace is a postmortem's flight-recorder window, so
          [dropped_total] counts the events before it (not written to
          the JSON form) *)
  sample_rate : float;  (** trace sampling rate in force, 1.0 = everything *)
  sampled_out_total : int;  (** events suppressed by sampling/level *)
  sampled_out_by_kind : (string * int) list;
  trace_truncated : bool;
      (** ring wrapped or sampling suppressed events: CDFs, hop
          histograms and redundancy are estimates over the surviving
          fraction, not exact counts *)
}

val of_trace : Atum_sim.Trace.t -> metrics:Atum_sim.Metrics.t -> result
(** Analyze a live run; violations are read from the metrics
    counters. *)

val of_artifact : Atum_sim.Artifact.t -> (result, string) Stdlib.result
(** Analyze the trace of a run artifact ([ATUM_<cmd>.json], written
    with [--json]) or of a postmortem, whose events before its window
    count as dropped ({!Atum_sim.Artifact.traced}). *)

val to_json : result -> Atum_util.Json.t
(** Machine-readable form; see EXPERIMENTS.md for the schema.
    Includes a [trace_truncated] flag and a [sampling] section
    ([{rate; sampled_out; sampled_out_by_kind; estimates}]) so lossy
    analyses are labeled as estimates. *)

val pp : Format.formatter -> result -> unit
(** Human-readable multi-line summary. *)

val saga_of_kind : string -> (string * bool) option
(** ["saga.<name>.begin"] -> [Some (<name>, true)],
    ["saga.<name>.end"] -> [Some (<name>, false)], else [None]. *)
