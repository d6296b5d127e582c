(** Synchronous state machine replication for one vgroup epoch.

    Time is divided into slots of [f + 1] rounds.  At each slot start,
    every member opens one Dolev-Strong broadcast instance per member;
    a member with pending operations initiates its own instance with
    the batch.  When the slot closes, every correct member has decided
    the same value (or ⊥) for every sender and executes the non-⊥
    batches in sender-id order — so all correct members execute the
    same operations in the same order.

    The instance is driven by the vgroup runtime: {!on_round_boundary}
    at every global round tick, {!receive} for incoming messages. *)

type msg

type t

val create :
  keyring:Atum_crypto.Signature.keyring ->
  transport:msg Smr_intf.transport ->
  epoch_id:string ->
  on_execute:(Smr_intf.op -> unit) ->
  t

val propose : t -> string -> unit
(** Queue a payload; it is broadcast in this member's next slot. *)

val receive : t -> src:Smr_intf.node_id -> msg -> unit

val on_round_boundary : t -> unit

val stop : t -> unit
(** Freeze the instance (epoch change); further input is ignored. *)

val encode_batch : string list -> string
(** Length-prefixed batch encoding (payloads may contain any bytes). *)

val decode_batch : string -> string list
(** Total inverse of {!encode_batch}: malformed input — e.g. a batch
    crafted by a Byzantine sender — decodes to a (possibly empty)
    well-formed prefix instead of raising. *)
