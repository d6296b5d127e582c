(** Shared types for the state-machine-replication protocols that run
    inside every vgroup. *)

type node_id = int

(** How a protocol instance talks to the outside world.  The vgroup
    runtime supplies one per (vgroup, epoch); [members] is fixed for
    the lifetime of the instance — membership changes create a new
    epoch and a new instance (SMART-style reconfiguration, §5.2). *)
type 'm transport = {
  self : node_id;
  members : node_id list;  (** includes [self]; fixed for the instance *)
  f : int;  (** fault threshold this instance is configured for *)
  send : node_id -> 'm -> unit;
  set_timer : float -> (unit -> unit) -> unit;
}

(* Binary search for [id] in [ids.(lo) .. ids.(hi - 1)]. *)
let rec search (ids : node_id array) id lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let m = ids.(mid) in
    if m = id then mid else if m < id then search ids id (mid + 1) hi else search ids id lo mid

(** [index ids id] is the position of [id] in the ascending array
    [ids], or -1 when it is absent.  Allocates nothing. *)
let index ids id = search ids id 0 (Array.length ids)

(** An operation as seen by the replicated state machine. *)
type op = { origin : node_id; payload : string }

(** Fault thresholds per protocol family (§3.1). *)
let sync_f ~group_size = (group_size - 1) / 2

let async_f ~group_size = (group_size - 1) / 3
