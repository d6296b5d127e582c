(** Dolev-Strong authenticated Byzantine broadcast (SIAM J. Comput.
    1983), the agreement primitive of the synchronous deployment.

    One instance lets a designated [sender] broadcast one value to a
    fixed member set, tolerating up to [f] Byzantine members (any [f],
    including the sender), in [f + 1] synchronous rounds:

    - round 1: the sender signs its value and sends it to everyone;
    - round [r]: a member that receives a value carrying [r] valid
      signatures from distinct members (the first being the sender's)
      {e extracts} it, appends its own signature and relays it — so a
      value extracted by any correct member at round [r <= f] is
      extracted by every correct member by round [r + 1];
    - after round [f + 1]: a member decides the extracted value if it
      extracted exactly one, and the default ⊥ ([None]) otherwise.

    The instance is driven externally: the vgroup runtime feeds
    received messages with {!receive} and calls {!end_of_round} at
    every round boundary, sending whatever it returns. *)

type msg

type t

val create :
  keyring:Atum_crypto.Signature.keyring ->
  self:Smr_intf.node_id ->
  members:Smr_intf.node_id list ->
  sender:Smr_intf.node_id ->
  f:int ->
  instance_id:string ->
  t
(** [instance_id] must be globally unique (it is part of the signed
    payload, preventing cross-instance replay). *)

val initiate : t -> string -> (Smr_intf.node_id * msg) list
(** Called on the sender at the start of round 1; returns the signed
    messages to send (one per other member).  The sender extracts its
    own value immediately. *)

val initiate_equivocating :
  t -> (Smr_intf.node_id * string) list -> (Smr_intf.node_id * msg) list
(** Byzantine-sender fault injection: send a (possibly different)
    value to each listed member. *)

val receive : t -> src:Smr_intf.node_id -> msg -> unit
(** Buffer a message received during the current round. *)

val end_of_round : t -> round:int -> (Smr_intf.node_id * msg) list
(** Process the round's buffered messages; [round] is the 1-based
    round index within this instance.  Returns relays to send during
    the next round.  At [round = f + 1] the instance decides. *)

val decision : t -> string option option
(** [None] while running; [Some None] = ⊥; [Some (Some v)] once
    decided. *)

val extracted : t -> string list
(** Values extracted so far (ordered by first extraction). *)
