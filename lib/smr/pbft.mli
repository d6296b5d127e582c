(** PBFT (Castro & Liskov) for one vgroup epoch — the agreement
    protocol of the asynchronous deployment.  Requires
    [n >= 3f + 1]; safe always, live under eventual synchrony.

    Implemented: the normal three-phase case (pre-prepare / prepare /
    commit with 2f+1 quorums), request retransmission, and a
    seq-preserving view change (prepared certificates are carried into
    the new view under their original sequence numbers, gaps filled
    with no-ops).  Omitted relative to the original paper: checkpoints
    and log truncation (instances are short-lived — every membership
    change starts a new epoch — so logs stay small), and per-message
    MACs (the simulated transport authenticates point-to-point links,
    which is the abstraction MACs provide). *)

type msg

type t

val create :
  transport:msg Smr_intf.transport ->
  timeout:float ->
  on_execute:(Smr_intf.op -> unit) ->
  t
(** Membership, primaries and vote de-duplication are rank lookups in
    the transport's [ids].  [timeout] is the view-change timer: how long a member waits for
    one of its requests to execute before suspecting the primary. *)

val propose : t -> string -> unit
(** Submit an operation; it is forwarded to the current primary and
    retransmitted across view changes until executed. *)

val receive : t -> src:Smr_intf.node_id -> msg -> unit

val stop : t -> unit

val view : t -> int

val primary : t -> Smr_intf.node_id

val executed_rids : t -> string list
(** The request ids of the executed log slots, in sequence order
    (no-ops included): what a replica has decided, for tests that pin
    it. *)
