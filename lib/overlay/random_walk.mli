(** Random walks over the H-graph.

    This is the {e pure} walk used for configuration studies (Fig 4)
    and as the sampling step of the distributed protocols: at each
    step the walk follows a uniformly random incident link (2·hc
    multi-edges).  The distributed implementation in [Atum_core] adds
    the communication machinery (bulk RNG, backward phase or
    certificate chains, §5.1) on top of the same hop choices. *)

val walk : Hgraph.t -> Atum_util.Rng.t -> start:int -> length:int -> int
(** Endpoint of a [length]-hop walk. *)

val walk_path : Hgraph.t -> Atum_util.Rng.t -> start:int -> length:int -> int list
(** The full vertex sequence, [length + 1] long, starting at
    [start]. *)

val bulk_choices : Atum_util.Rng.t -> length:int -> int list
(** The paper's bulk RNG (§5.1): draw all [length] hop decisions up
    front; each is later reduced to a link index by {!choice_index}.
    Drawing ahead of time prevents a Byzantine node from biasing hop
    choices by draining a pre-computed randomness pool. *)

val choice_index : degree:int -> int -> int
(** [choice_index ~degree choice] reduces a pre-drawn hop decision to
    a uniform link index in [\[0, degree)].  Unlike [choice mod
    degree] this has no modulo bias, so a replayed walk is distributed
    exactly like a live walk (one uniform [Rng.pick] per hop).
    Deterministic in [choice].  Raises [Invalid_argument] when
    [degree <= 0]. *)

val walk_with_choices : Hgraph.t -> start:int -> choices:int list -> int
(** Replay a walk from pre-drawn hop decisions. *)

val step_fast : Hgraph.t -> Atum_util.Rng.t -> int -> int
(** One hop, allocation-free, for large-scale simulation: picks one of
    the 2·hc incident links by index. *)

val walk_fast : Hgraph.t -> Atum_util.Rng.t -> start:int -> length:int -> int
