(** A Chord-style DHT — the alternative metadata layer the paper
    explicitly leaves as future work (§4.2, footnote: "An alternative
    is to use a DHT.  This method, however, is fraught with challenges
    if we want to tolerate arbitrary faults and churn").

    This module makes that remark quantitative.  It implements Chord's
    structure over the current membership — hashed ring positions,
    finger tables, successor lists — with greedy
    closest-preceding-finger routing, and then lets experiments injure
    it the two ways the paper worries about:

    - {b churn}: finger tables are a {e snapshot}; nodes that leave
      after the snapshot ({!mark_dead}) make fingers dangle, and
      lookups pay extra hops (or fail) working around them until the
      next {!rebuild} (Chord's stabilization);
    - {b Byzantine routers}: a Byzantine node ({!mark_byzantine})
      silently drops queries routed through it; lookups survive only
      by detouring, and data survives only because each key is
      replicated on [replicas] consecutive successors.

    The [dht] benchmark target compares this against Atum+AShare's
    broadcast-replicated index. *)

type t

type lookup_result = {
  responsible : int option;
      (** a live, correct holder of the key, if the lookup succeeded *)
  hops : int;  (** routing hops taken, detours included *)
  detours : int;  (** dead or Byzantine fingers the route had to skip *)
}

val build : ?bits:int -> ?replicas:int -> node_ids:int list -> unit -> t
(** Snapshot a perfectly-stabilized Chord ring over [node_ids]:
    positions are SHA-256 hashes truncated to [bits] (default 30),
    fingers are exact.  [replicas] (default 4) consecutive successors
    hold each key. *)

val size : t -> int

val position_of : t -> int -> int
(** A node's ring position. *)

val holders : t -> string -> int list
(** The [replicas] successors responsible for a key (as of the
    snapshot). *)

val mark_dead : t -> int -> unit
(** The node left after the snapshot; its fingers dangle until
    {!rebuild}. *)

val mark_byzantine : t -> int -> unit
(** The node drops queries routed through it and corrupts anything it
    stores. *)

val lookup : t -> from:int -> key:string -> lookup_result
(** Route greedily from [from]'s finger table; skip dead or Byzantine
    fingers (each skip costs a detour hop).  Succeeds when it reaches
    a live correct replica of the key. *)

val rebuild : t -> t
(** Chord stabilization: re-snapshot the ring over the currently live
    nodes (Byzantine marks are kept — stabilization cannot detect
    quiet Byzantine routers). *)

val mean_lookup_hops : t -> samples:int -> seed:int -> float
(** Mean hops over random (source, key) lookups that succeed. *)

val lookup_success_rate : t -> samples:int -> seed:int -> float
