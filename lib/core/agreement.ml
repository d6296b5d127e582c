(* Agreement inside a vgroup: one replicated state machine per epoch,
   Dolev-Strong rounds under Sync and PBFT under Async (§3.1, §5).
   Every membership change stops the epoch's replicas, installs new
   ones and re-proposes the agreements and broadcasts still pending on
   the vgroup — the SMART-style carry-over of DESIGN.md.  What replicas
   execute is a typed [op], encoded to the string the SMR layer signs
   and digests. *)

open Registry
module Network = Atum_sim.Network
module Smr_intf = Atum_smr.Smr_intf
module Sync_smr = Atum_smr.Sync_smr
module Pbft = Atum_smr.Pbft

type op =
  | Control of { id : int; label : string }
  | Bcast of { bid : int; origin : node_id; body : string }

let encode_op = function
  | Control { id; label } -> "op#" ^ string_of_int id ^ "#" ^ label
  | Bcast { bid; origin; body } -> Printf.sprintf "bcast#%d#%d#%s" bid origin body

(* Integers only in canonical decimal form, so that every string
   [decode_op] accepts is exactly [encode_op] of its result. *)
let int_field s =
  match int_of_string_opt s with
  | Some n when String.equal (string_of_int n) s -> Some n
  | _ -> None

(* The label and the body are the rest of the string, '#'s included. *)
let decode_op s =
  match String.split_on_char '#' s with
  | "op" :: id :: (_ :: _ as label) ->
    Option.map (fun id -> Control { id; label = String.concat "#" label }) (int_field id)
  | "bcast" :: bid :: origin :: (_ :: _ as body) -> (
    match (int_field bid, int_field origin) with
    | Some bid, Some origin -> Some (Bcast { bid; origin; body = String.concat "#" body })
    | _ -> None)
  | _ -> None

let epoch_id vg = Printf.sprintf "vg%d/e%d" vg.vid vg.epoch

(* The index of [nid]'s replica, or -1 when it has none. *)
let replica_index reps nid = Smr_intf.index reps.ids nid

let replica_of vg nid =
  match vg.smr with
  | Some reps ->
    let i = replica_index reps nid in
    if i >= 0 then Some reps.reps.(i) else None
  | None -> None

let rec find_pending payload = function
  | [] -> None
  | p :: rest -> if String.equal p.payload payload then Some p else find_pending payload rest

(* Replica [member] executed [op]: a broadcast is delivered at
   [member], and the member counts toward the op's pending agreement,
   which fires once a majority of the members has executed it. *)
let on_execute t vg member (op : Smr_intf.op) =
  (match decode_op op.payload with
  | Some (Bcast { bid; origin; body }) -> t.deliver_agreed member ~bid ~origin ~body
  | Some (Control _) | None -> ());
  match find_pending op.payload vg.pending with
  | None -> ()
  | Some p ->
    if count_vote p.execs member >= majority_of (size vg) then begin
      vg.pending <- List.filter (fun q -> q != p) vg.pending;
      p.action ()
    end

let stop_smr vg =
  let stop = function Sync_rep i -> Sync_smr.stop i | Async_rep i -> Pbft.stop i in
  Option.iter (fun reps -> Array.iter stop reps.reps) vg.smr;
  vg.smr <- None

(* One replica per correct member, ascending member id: the Sync round
   driver walks them in that order.  Every replica shares the roster. *)
let install_smr t vg =
  let roster = vg.roster and epoch = vg.epoch and g = size vg in
  let transport self f wrap =
    {
      Smr_intf.self;
      members = roster.members;
      ids = roster.ids;
      f;
      send =
        (fun dst m ->
          Network.send t.net ~src:self ~dst (Smr_msg { vg = vg.vid; epoch; m = wrap m }));
      set_timer = (fun delay fn -> Engine.schedule ~label:"smr.timer" t.engine ~delay fn);
    }
  in
  let replica self =
    let on_execute = on_execute t vg self in
    match t.params.protocol with
    | Params.Sync ->
      let transport = transport self (Smr_intf.sync_f ~group_size:g) (fun m -> Sync_m m) in
      Sync_rep (Sync_smr.create ~keyring:t.keyring ~transport ~epoch_id:(epoch_id vg) ~on_execute)
    | Params.Async ->
      let transport = transport self (Smr_intf.async_f ~group_size:g) (fun m -> Async_m m) in
      Async_rep
        (Pbft.create ~transport ~timeout:t.params.pbft_timeout ~on_execute)
  in
  let ids = Array.of_seq (Seq.filter (fun m -> is_correct (node t m)) (Array.to_seq roster.ids)) in
  vg.smr <- Some { ids; reps = Array.map replica ids }

(* Lazy SMR: bulk-built vgroups ([build_direct]) defer replica
   creation until the first agreement actually needs one — a
   million-node build would otherwise pay for a million SMR instances
   up front.  A no-op on every saga-built vgroup, whose instances are
   installed eagerly by [reconfigure]. *)
let ensure_smr t vg =
  if Option.is_none vg.smr && size vg > 0 && not vg.retired then install_smr t vg

let propose vg proposer payload =
  match replica_of vg proposer with
  | Some (Sync_rep i) -> Sync_smr.propose i payload
  | Some (Async_rep i) -> Pbft.propose i payload
  | None -> ()

(* Membership changed: stop the old epoch's replicas, start the new
   ones, and re-propose every agreement and broadcast still pending
   (the SMART-style carry-over).  A re-proposal can execute
   synchronously (a one-member PBFT group), and the action it fires can
   complete other pending ops; those have left [vg.pending] and are
   skipped. *)
let reconfigure t vg =
  stop_smr vg;
  vg.epoch <- vg.epoch + 1;
  if size vg > 0 && not vg.retired then begin
    install_smr t vg;
    List.iter
      (fun p ->
        if List.memq p vg.pending then begin
          p.execs <- tally vg.roster;
          Option.iter (fun m -> propose vg m p.payload) (first_correct t vg)
        end)
      vg.pending
  end;
  audit t (Audit_reconfig vg.vid)

let agree t vg ?parent label action =
  if not vg.retired then begin
    ensure_smr t vg;
    let id = t.next_op in
    t.next_op <- id + 1;
    let span = span_begin t ~saga:"agree" ~vgroup:vg.vid ?parent () in
    let action () =
      span_end t ~saga:"agree" ~vgroup:vg.vid span;
      action ()
    in
    let payload = encode_op (Control { id; label }) in
    vg.pending <- { payload; action; execs = tally vg.roster } :: vg.pending;
    Option.iter (fun m -> propose vg m payload) (first_correct t vg)
  end

(* A broadcast's first phase is pending like a control op, with no
   action: its origin proposes it if correct, the vgroup's proposer
   otherwise, and every epoch change re-proposes it until a majority
   of the members has executed it. *)
let propose_bcast t vg ~origin ~bid ~body =
  ensure_smr t vg;
  let payload = encode_op (Bcast { bid; origin; body }) in
  vg.pending <- { payload; action = ignore; execs = tally vg.roster } :: vg.pending;
  let proposer = if is_correct (node t origin) then Some origin else first_correct t vg in
  Option.iter (fun m -> propose vg m payload) proposer

(* An SMR message for [nid]'s replica in [vg]'s current epoch. *)
let receive vg nid ~src m =
  match vg.smr with
  | None -> ()
  | Some reps -> (
    let i = replica_index reps nid in
    if i >= 0 then
      match (reps.reps.(i), m) with
      | Sync_rep r, Sync_m m -> Sync_smr.receive r ~src m
      | Async_rep r, Async_m m -> Pbft.receive r ~src m
      | Sync_rep _, Async_m _ | Async_rep _, Sync_m _ -> ())

(* A Sync round boundary: drive every correct member's replica, in
   ascending member order so the event queue fills deterministically. *)
let on_round_boundary t vg =
  match vg.smr with
  | Some reps ->
    Array.iteri
      (fun k member ->
        match (reps.reps.(k), node_opt t member) with
        | Sync_rep i, Some n when is_correct n -> Sync_smr.on_round_boundary i
        | _ -> ())
      reps.ids
  | None -> ()

let async_replicas vg =
  match vg.smr with
  | None -> []
  | Some reps ->
    List.filter_map
      (fun k -> match reps.reps.(k) with Async_rep r -> Some (reps.ids.(k), r) | Sync_rep _ -> None)
      (List.init (Array.length reps.ids) Fun.id)
