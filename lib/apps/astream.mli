(** AStream: data streaming over Atum (§4.3).

    Tier 1 sends stream-chunk digests through Atum broadcast (reliable
    but SMR-priced); tier 2 moves the bulk data over a spanning forest
    with a push-pull scheme.

    The forest construction follows the paper: a deterministic
    function picks a cycle of the H-graph and a direction; every node
    takes [f + 1] random parents from the upstream neighbor vgroup on
    that cycle, nodes in vgroups adjacent to the source take the
    source itself as single parent, and nodes keep shortcut parents in
    the other neighbor vgroups.  Because every vgroup has a correct
    majority and parents outnumber the per-vgroup fault bound, every
    correct node has at least one correct parent — so every chunk
    eventually reaches everyone ({!check_forest}).

    The [cycles_used] knob is the Fig 12 experiment: building the
    forest over one cycle (Single) or two (Double). *)

type t

type node_id = int

val build :
  atum:Atum_core.Atum.t -> source:node_id -> cycles_used:int -> seed:int -> t
(** Construct the forest from the current overlay.  [cycles_used] must
    be between 1 and the configured [hc]. *)

val source : t -> node_id

val parents : t -> node_id -> node_id list
(** Primary parents, in preference order (first = first pushed). *)

val check_forest : t -> (unit, string) result
(** Every correct node must be reachable from the source through
    correct parents. *)

type stream_stats = {
  per_node_latency : (node_id * float) list;
      (** steady-state per-chunk delivery latency, seconds *)
  mean_latency : float;
  max_latency : float;
  first_chunk_penalty : float;
      (** mean extra delay on the first chunk from probing dead or
          Byzantine parents before settling on a valid one *)
  unreached : node_id list;  (** correct nodes with no correct path *)
}

val stream : t -> chunk_mb:float -> stream_stats
(** Steady-state dissemination cost of one chunk: shortest correct
    parent path from the source, each hop costing one RTT plus the
    chunk transfer time at the host uplink rate. *)

type simulation_stats = {
  sim_per_node : (node_id * float) list;
      (** mean per-chunk delivery latency over the simulated stream *)
  sim_mean_latency : float;
  sim_max_latency : float;
  parent_switches : int;
      (** children that had to probe past a dead or Byzantine parent *)
  sim_unreached : node_id list;
}

val simulate :
  ?chunks:int -> ?rate_mb_per_s:float -> t -> chunk_mb:float -> simulation_stats
(** Event-driven push-pull dissemination (§4.3): the source emits
    [chunks] chunks at [rate_mb_per_s]; chunk 1 is pushed down the
    forest, children then stick to the first parent that served a
    valid chunk and pull the rest from it, probing the next parent
    after a timeout if it stops serving.  Runs on its own
    discrete-event engine; Byzantine nodes receive but never serve. *)
