(* The registry: Atum's ground truth and the state every layer above
   shares — who is in which vgroup, the H-graph, the node and vgroup
   arenas, the wire type, and the small helpers and liveness mutators
   that keep the maintained counters and the dirty log exact.  The
   registry is mutated only when the responsible vgroup's SMR instance
   has agreed on the change at a majority of its correct members (the
   vgroup-controller abstraction documented in DESIGN.md); [Agreement]
   runs that SMR, and [System] builds the protocols on top. *)

module Rng = Atum_util.Rng
module Engine = Atum_sim.Engine
module Network = Atum_sim.Network
module Rounds = Atum_sim.Rounds
module Metrics = Atum_sim.Metrics
module Trace = Atum_sim.Trace
module Telemetry = Atum_sim.Telemetry
module Hgraph = Atum_overlay.Hgraph
module Random_walk = Atum_overlay.Random_walk
module Grouping = Atum_overlay.Grouping

type node_id = int
type vg_id = int

(* A vgroup's membership between two writes ([set_members]), immutable:
   [members] in join order, which decides who sends full parts, the
   same as the array [order] that group messages address, and [ids]
   ascending, with [ranks.(i)] the join position of [ids.(i)]. *)
type roster = {
  members : node_id list;
  order : node_id array;
  ids : node_id array;
  ranks : int array;
  size : int;
}

(* The distinct senders counted toward a majority: ranks in the roster
   of the part that opened the tally, ids of senders outside it. *)
type tally =
  { t_roster : roster; t_ranks : Bytes.t; mutable t_outside : node_id list; mutable t_count : int }

(* A control group message with a continuation carries its own
   acceptance state: [needed] destination members must accept, and
   [rows.(i)] tallies the senders that member [dst_ids.(i)] (the
   destination roster's ascending ids) has heard until it accepts.
   The state dies with the message. *)
type gm_payload =
  | Control of { label : string; accept : gm_accept option }
  | Bcast of { bid : int; origin : node_id; body : string; cycle : int }

and gm_accept = {
  needed : int;
  k : unit -> unit;
  mutable accepts : int;
  dst_ids : node_id array;
  rows : tally array;
}

(* SMR traffic of either protocol family, tagged with the vgroup epoch
   whose replicas it belongs to. *)
type smr_msg = Sync_m of Atum_smr.Sync_smr.msg | Async_m of Atum_smr.Pbft.msg

(* A direct message carries its own continuation: it runs when the
   message is delivered and dies with the message if it is dropped. *)
type wire =
  | Smr_msg of { vg : vg_id; epoch : int; m : smr_msg }
  | Group_part of { src_vg : vg_id; roster : roster; payload : gm_payload }
  | Direct of { label : string; k : unit -> unit }
  | Heartbeat

type replica = Sync_rep of Atum_smr.Sync_smr.t | Async_rep of Atum_smr.Pbft.t

(* One epoch's replicas, one per correct member: [ids] ascending and
   [reps.(i)] the replica of [ids.(i)]. *)
type replicas = { ids : node_id array; reps : replica array }

(* An agreement or broadcast in flight on its vgroup: the encoded op
   [payload] is re-proposed into every new epoch until a majority of
   the members has executed it, which fires [action] once and removes
   the op from the vgroup's [pending] list.  The payload is the op's
   key: it carries a control op's unique id or a broadcast's bid. *)
type pending_op = {
  payload : string;
  action : unit -> unit;
  mutable execs : tally; (* the members that executed it this epoch *)
}

(* How an adversarial node behaves.  [Mute] is the original
   quiet-Byzantine model (§6.1.3): heartbeat, ignore protocol traffic.
   The active strategies implement the attacks the paper defends
   against — equivocation, selective forwarding, traffic flooding,
   join-leave churn, and the targeted attack (§6.2) where an adversary
   concentrates its nodes on one vgroup.  [Target_vgroup] composes:
   its [inner] strategy drives the node's wire-level behaviour while
   the targeting drives where it joins. *)
type byz_strategy =
  | Mute
  | Equivocate
  | Selective_drop of float
  | Flood of { fanout : int; size : int }
  | Join_leave_attack
  | Target_vgroup of { vg : vg_id; inner : byz_strategy }

(* Senders one node has heard vouch for one message (origin and body)
   of broadcast [v_bid], which it has not delivered yet, from one
   source vgroup: the group-message rule (§5.1) accepts only a majority
   for the same message.  A node holds one per (bid, source vgroup,
   message), and drops a bid's all on delivery. *)
type votes = { v_bid : int; from_vg : vg_id; origin : node_id; body : string; voters : tally }

(* Origin and body ride along so restart catch-up can re-deliver any
   broadcast a peer has and the restarted node missed. *)
type bcast_meta = {
  started : float;
  b_origin : node_id;
  b_body : string;
  (* The WAL frame of this broadcast's delivery record, built by the
     first member that logs it and appended by every other. *)
  mutable b_frame : Atum_store.Replica.frame option;
}

(* One gossip round being assembled for the current engine instant:
   the members of vgroup [r_src_vg] that deliver broadcast [r_bid]
   before the instant's flush, found on its vgroup's [rounds].  The
   round sends one [send_group] per part (one per target vgroup), all
   flushed by one event — one engine event per instant instead of one
   per (sender, neighbor) pair.

   While every member picks the targets the first one picked, each
   member is a sender of every part, so the parts share the round's
   one sender array ([r_srcs], its first [r_count] slots) and a member
   joins in O(1).  A member that picks other targets (the view or the
   forward policy changed mid-instant) splits the round: each part
   takes the shared senders as its own list ([f_srcs]) and members
   join part by part from then on, as if nothing had been shared.  A
   part keeps the body, origin, cycle and source roster of the member
   that created it. *)
type fanout_round = {
  r_src_vg : vg_id;
  r_bid : int;
  r_targets : (vg_id * int) list; (* the first member's targets *)
  mutable r_parts : fanout_part list; (* reversed *)
  mutable r_srcs : (node_id * int) array; (* (sender, bytes), in joining order *)
  mutable r_count : int; (* the senders in [r_srcs] *)
  mutable r_split : bool;
  mutable r_open : bool; (* until the flush *)
}

and fanout_part = {
  f_round : fanout_round;
  f_dst : vg_id;
  f_roster : roster;
  f_origin : node_id;
  f_body : string;
  f_cycle : int;
  mutable f_srcs : (node_id * int) list; (* once the round is split; reversed *)
}

(* One broadcast id: the node ids that delivered it (a Byzantine node
   marks those it reacted to, as its once-per-bid marker), and its
   metadata once issued. *)
type bcast = { delivered : Atum_util.Bitset.t; mutable meta : bcast_meta option }

(* Per-node state is deliberately lean — at a million nodes every
   word per node is a megaword of heap.  Who delivered what is one
   bitmap over the dense node ids per broadcast ([bcast.delivered]):
   the same matrix of bits a bitmap per node over the broadcast ids
   would hold, transposed, so the gossip path tests a (node, bid) bit
   without loading the node.  The gossip votes a node holds short of
   acceptance hang off it, an empty list when idle; heartbeat
   timestamps live in a system-level table keyed by (node, peer). *)
type node = {
  id : node_id;
  mutable vg : vg_id option;
  mutable byzantine : bool;
  mutable strategy : byz_strategy;
  mutable alive : bool;
  mutable votes : votes list; (* newest first *)
}

type vgroup = {
  vid : vg_id;
  mutable roster : roster; (* written only by [set_members] *)
  mutable epoch : int;
  (* The current epoch's replicas; [None] until installed (bulk-built
     vgroups install lazily). *)
  mutable smr : replicas option;
  mutable pending : pending_op list; (* newest first *)
  mutable busy : bool; (* a saga holds the vgroup; written only by the saga table *)
  mutable retired : bool;
  (* Cached gossip view: the neighbor list annotated with the cycles
     linking to it, sorted by neighbor id — recomputed only when the
     overlay generation moves (one sort per topology change, not one
     per delivery). *)
  mutable nbrs_gen : int;
  mutable nbrs : (vg_id * int list) list;
  (* Memoised forward decision for the last broadcast this vgroup
     forwarded (every member takes the same one): valid until the view
     is rebuilt or the forward policy replaced, which reset [fwd_bid]. *)
  mutable fwd_bid : int;
  mutable fwd_targets : (vg_id * int) list;
  mutable rounds : fanout_round list; (* open gossip rounds of this instant, one per bid *)
}

(* Sagas (§3.3) as data: each join, leave, eviction, split, merge,
   shuffle and shuffle exchange in flight is one record in the saga
   table, and its continuations are closures over the record.  A saga
   is Proposing until it holds what it changes, Holding until its
   agreements have executed and Committed while it carries the change
   out.  A stalled saga stays in the table. *)
type saga_kind = Join | Leave | Evict | Split | Merge | Shuffle | Exchange
type saga_phase = Proposing | Holding | Committed
type saga_wait = Agreements of int | Walks of int | Message

type saga = {
  id : int; (* its key in the table *)
  kind : saga_kind;
  mutable span : int; (* -1 until begun; an exchange nests in its shuffle's *)
  mutable phase : saga_phase;
  mutable vgroups : vg_id list; (* taken; finishing releases them all *)
  mutable nodes : node_id list; (* a join's joiner; an exchange's two, which it holds *)
  mutable at : vg_id; (* the vgroup a join's current step waits on, or -1 *)
  mutable waits : saga_wait;
  mutable deadline : float; (* when its holds time out or its departure is re-issued *)
}

(* The sagas in flight by id, the saga holding each busy vgroup, the
   exchange holding each engaged node, the vgroups a shuffle is queued
   on until they are free, and the walks parked on a new vgroup until
   it is placed on the H-graph. *)
type saga_table = {
  mutable next_saga : int;
  live : (int, saga) Hashtbl.t;
  held : (vg_id, saga) Hashtbl.t;
  engaged : (node_id, saga) Hashtbl.t;
  queued : (vg_id, unit) Hashtbl.t;
  parked : (vg_id, (unit -> unit) list) Hashtbl.t;
}

(* Semantic checkpoints for an external auditor (the invariant
   monitor): fired synchronously at the point where the registry or a
   node's delivery log actually changes. *)
type audit =
  | Audit_deliver of { node : node_id; bid : int; body : string }
  | Audit_reconfig of vg_id

(* One completed-or-in-flight [restart]: when the node came back, when
   its registry membership was re-established, when catch-up finished,
   and what the durable store contributed. *)
type restart_report = {
  r_node : node_id;
  r_restarted_at : float;
  mutable r_rejoined_at : float option;
  mutable r_caught_up_at : float option;
  r_fallback : bool; (* corrupt store: wiped, recovered via fresh join *)
  r_replayed : int; (* WAL entries applied during cold start *)
}

type t = {
  params : Params.t;
  engine : Engine.t;
  net : wire Network.t;
  rounds : Rounds.t option;
  keyring : Atum_crypto.Signature.keyring;
  rng : Rng.t;
  metrics : Metrics.t;
  trace : Trace.t;
  nodes : node Atum_util.Arena.t;
  vgroups : vgroup Atum_util.Arena.t;
  (* Maintained counters: gauges and sagas read these instead of
     rescanning the registry (the old O(N log N)-per-sample bug). *)
  mutable live_count : int; (* alive nodes with a vgroup *)
  mutable live_byz_count : int; (* Byzantine subset of the above *)
  mutable active_vgroups : int; (* non-retired vgroups *)
  (* Append-only log of vgroup ids whose state changed; consumers
     (incremental consistency checks, monitor sweeps) keep a cursor
     into it and only examine what moved since their last look. *)
  mutable dirty_log : int array;
  mutable dirty_len : int;
  (* Liveness state, keyed by (node, peer) (see [node]). *)
  last_seen : (node_id * node_id, float) Hashtbl.t;
  mutable recycle_ids : bool; (* free node ids on depart completion *)
  (* Gossip rounds being assembled for the current instant: their
     parts in reversed creation order, and whether their flush is
     scheduled.  The open rounds hang off their vgroups. *)
  mutable fanout : fanout_part list;
  mutable fanout_scheduled : bool;
  (* The last sender rank asked for, by roster and id: arrival walks a
     batch one sender's row at a time, so a row asks once. *)
  mutable rank_roster : roster;
  mutable rank_id : node_id;
  mutable rank_of : int;
  mutable hgraph : Hgraph.t;
  mutable bootstrapped : bool;
  mutable next_gm : int;
  mutable next_bid : int;
  mutable next_op : int;
  mutable bcasts : bcast array; (* by bid; grown by [bcast] *)
  delivered_count : Metrics.handle; (* "broadcast.delivered" *)
  latency : Metrics.series; (* "broadcast.latency" *)
  mutable next_span : int;
  sagas : saga_table;
  mutable on_deliver : node_id -> bid:int -> origin:node_id -> string -> unit;
  (* Hands a broadcast that a member's replica executed to the gossip
     layer; [System.create] points it at [node_deliver]. *)
  mutable deliver_agreed : node_id -> bid:int -> origin:node_id -> body:string -> unit;
  mutable on_audit : (audit -> unit) option;
  mutable forward_policy : bid:int -> from_vg:vg_id -> cycle:int -> neighbor:vg_id -> bool;
  mutable heartbeats_running : bool;
  mutable heartbeats_since : float;
  mutable shuffling_enabled : bool;
  mutable telemetry : Telemetry.t option;
  (* Durable per-replica state (WAL + snapshots) and the app-state
     hooks the durability layer drives; None/empty until attached. *)
  mutable store : Atum_store.Replica.t option;
  mutable app_export : (node_id -> Buffer.t -> unit) option; (* writes one JSON value *)
  mutable app_wipe : (node_id -> unit) option;
  mutable app_import : (node_id -> Atum_util.Json.t -> unit) option;
  mutable app_replay : (node_id -> bid:int -> origin:node_id -> string -> unit) option;
  mutable restarts : restart_report list; (* newest first *)
}

(* ------------------------------------------------------------------ *)
(* Construction and small helpers                                      *)
(* ------------------------------------------------------------------ *)

let flood_forward ~bid:_ ~from_vg:_ ~cycle:_ ~neighbor:_ = true

let no_roster = { members = []; order = [||]; ids = [||]; ranks = [||]; size = 0 }

(* The paper's default (§3.3.4): forward to random neighbors — but
   always gossip on a designated cycle, which turns the probabilistic
   delivery of gossip into a deterministic guarantee.  The coin flip
   hashes the broadcast id and the link, so every correct member of a
   vgroup takes the same decision without coordination. *)
let random_forward ~bid ~from_vg ~cycle ~neighbor =
  cycle = 0 || Hashtbl.hash (bid, from_vg, cycle, neighbor) land 1 = 0

let create ?(net_config : Network.config option) ?trace_capacity (params : Params.t) =
  (match Params.validate params with
  | Ok () -> ()
  | Error e -> invalid_arg ("System.create: " ^ e));
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let trace = Trace.create ?capacity:trace_capacity () in
  Engine.set_trace engine trace;
  let net_config =
    match net_config with
    | Some c -> c
    | None ->
      (match params.protocol with
      | Params.Sync -> Network.datacenter_config ~seed:(params.seed + 1)
      | Params.Async -> Network.wan_config ~seed:(params.seed + 1))
  in
  (* The network shares the system's metrics (so net.drop.* counters
     land in one snapshot) and its trace. *)
  let net = Network.create ~metrics ~trace engine net_config in
  let rounds =
    match params.protocol with
    | Params.Sync ->
      let r = Rounds.create engine ~round_duration:params.round_duration in
      Some r
    | Params.Async -> None
  in
  {
    params;
    engine;
    net;
    rounds;
    keyring = Atum_crypto.Signature.create_keyring ~seed:(params.seed + 2);
    rng = Rng.create params.seed;
    metrics;
    trace;
    nodes = Atum_util.Arena.create ~cap:1024 ();
    vgroups = Atum_util.Arena.create ~cap:256 ();
    live_count = 0;
    live_byz_count = 0;
    active_vgroups = 0;
    dirty_log = Array.make 256 0;
    dirty_len = 0;
    last_seen = Hashtbl.create 256;
    recycle_ids = false;
    fanout = [];
    fanout_scheduled = false;
    rank_roster = no_roster;
    rank_id = -1;
    rank_of = -1;
    hgraph = Hgraph.empty ~cycles:params.hc;
    bootstrapped = false;
    next_gm = 0;
    next_bid = 0;
    next_op = 0;
    bcasts = [||];
    delivered_count = Metrics.handle metrics "broadcast.delivered";
    latency = Metrics.series metrics "broadcast.latency";
    next_span = 0;
    sagas =
      { next_saga = 0; live = Hashtbl.create 64; held = Hashtbl.create 16;
        engaged = Hashtbl.create 16; queued = Hashtbl.create 16; parked = Hashtbl.create 4 };
    on_deliver = (fun _ ~bid:_ ~origin:_ _ -> ());
    deliver_agreed = (fun _ ~bid:_ ~origin:_ ~body:_ -> ());
    on_audit = None;
    forward_policy = random_forward;
    heartbeats_running = false;
    heartbeats_since = infinity;
    shuffling_enabled = true;
    telemetry = None;
    store = None;
    app_export = None;
    app_wipe = None;
    app_import = None;
    app_replay = None;
    restarts = [];
  }

let engine t = t.engine
let metrics t = t.metrics
let trace t = t.trace
let network t = t.net

(* Protocol-level trace events.  The enabled-check skips the emit, but
   a caller's optional arguments are boxed before it runs: hot call
   sites test [Trace.enabled] themselves first. *)
let trace_emit t ~kind ?node ?peer ?vgroup ?size ?bid ?span ?parent ?cycle () =
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:(Engine.now t.engine) ~kind ?node ?peer ?vgroup ?size ?bid ?span
      ?parent ?cycle ()
let now t = Engine.now t.engine
let params t = t.params

(* Saga spans: a ["saga.<name>.begin"] / ["saga.<name>.end"] pair
   shares a fresh span id, and [parent] nests child sagas (a join's
   walk, a split's agreement) under their initiator.  Ids are drawn
   unconditionally so enabling the trace never perturbs the id
   sequence between otherwise identical runs. *)
let fresh_span t =
  let id = t.next_span in
  t.next_span <- id + 1;
  id

let span_begin t ~saga ?node ?vgroup ?parent () =
  let span = fresh_span t in
  Metrics.incr t.metrics "saga.begin.total";
  trace_emit t ~kind:("saga." ^ saga ^ ".begin") ?node ?vgroup ~span ?parent ();
  span

let span_end t ~saga ?node ?vgroup span =
  Metrics.incr t.metrics "saga.end.total";
  trace_emit t ~kind:("saga." ^ saga ^ ".end") ?node ?vgroup ~span ()

let audit t a = match t.on_audit with Some f -> f a | None -> ()

let set_deliver t f = t.on_deliver <- f
let set_audit t f = t.on_audit <- f
let set_forward_policy t f =
  t.forward_policy <- f;
  Atum_util.Arena.iter (fun _ vg -> vg.fwd_bid <- -1) t.vgroups

let node t id = Atum_util.Arena.find t.nodes id
let node_opt t id = Atum_util.Arena.get t.nodes id
let vgroup t vid = Atum_util.Arena.find t.vgroups vid
let vgroup_opt t vid = Atum_util.Arena.get t.vgroups vid

(* Mark a vgroup as touched for the incremental consumers.  Appends
   are amortized O(1); duplicates are fine (consumers dedup). *)
let mark_dirty t vid =
  if t.dirty_len = Array.length t.dirty_log then begin
    let log = Array.make (2 * t.dirty_len) 0 in
    Array.blit t.dirty_log 0 log 0 t.dirty_len;
    t.dirty_log <- log
  end;
  t.dirty_log.(t.dirty_len) <- vid;
  t.dirty_len <- t.dirty_len + 1

let dirty_cursor t = t.dirty_len

(* Vgroup ids touched since [cursor], deduped ascending. *)
let dirty_since t cursor =
  if cursor >= t.dirty_len then []
  else begin
    let acc = ref [] in
    for i = t.dirty_len - 1 downto max 0 cursor do
      acc := t.dirty_log.(i) :: !acc
    done;
    List.sort_uniq Int.compare !acc
  end

let node_name id = "node-" ^ string_of_int id

let is_correct n = n.alive && not n.byzantine

let members vg = vg.roster.members

let size vg = vg.roster.size

let roster members =
  let order = Array.of_list members in
  let ranks = Array.init (Array.length order) Fun.id in
  Array.stable_sort (fun a b -> Int.compare order.(a) order.(b)) ranks;
  { members; order; ids = Array.map (Array.get order) ranks; ranks; size = Array.length order }

(* [id]'s join position, or -1 when absent. *)
let rank (r : roster) id =
  let i = Atum_smr.Smr_intf.index r.ids id in
  if i < 0 then -1 else r.ranks.(i)

(* [rank], remembered for the next ask: rosters are immutable. *)
let sender_rank t (r : roster) id =
  if r == t.rank_roster && id = t.rank_id then t.rank_of
  else begin
    let k = rank r id in
    t.rank_roster <- r;
    t.rank_id <- id;
    t.rank_of <- k;
    k
  end

let has_member vg id = rank vg.roster id >= 0

(* The one write of a vgroup's membership. *)
let set_members t vg members =
  vg.roster <- roster members;
  mark_dirty t vg.vid

let tally roster =
  { t_roster = roster; t_ranks = Bytes.make roster.size '\000'; t_outside = []; t_count = 0 }

(* Count sender [id], of rank [r] in the tally's roster (-1 if none),
   once, by rank or else by id; the tally's count. *)
let count_ranked tl r id =
  if r >= 0 && Bytes.get tl.t_ranks r = '\000' then begin
    Bytes.set tl.t_ranks r '\001';
    tl.t_count <- tl.t_count + 1
  end
  else if r < 0 && not (List.exists (Int.equal id) tl.t_outside) then begin
    tl.t_outside <- id :: tl.t_outside;
    tl.t_count <- tl.t_count + 1
  end;
  tl.t_count

let count_vote tl id = count_ranked tl (rank tl.t_roster id) id

let correct_members t vg = List.filter (fun m -> is_correct (node t m)) (members vg)

(* In join order: the proposer, certificate signer and failure detector. *)
let first_correct t vg = List.find_opt (fun m -> is_correct (node t m)) (members vg)

let majority_of count = (count / 2) + 1

(* --- broadcasts by id, and who delivered them ----------------------- *)

(* [bid]'s entry; the table grows to any id asked for. *)
let bcast t bid =
  if bid < 0 then invalid_arg "System.bcast: negative broadcast id";
  let n = Array.length t.bcasts in
  if bid >= n then
    t.bcasts <-
      Array.init (max (bid + 1) (max 64 (2 * n))) (fun i ->
          if i < n then t.bcasts.(i) else { delivered = Atum_util.Bitset.create (); meta = None });
  t.bcasts.(bid)

let bcast_meta t bid = if bid >= 0 && bid < Array.length t.bcasts then t.bcasts.(bid).meta else None

(* Whether node [nid] delivered (or, Byzantine, reacted to) [bid]. *)
let has_delivered t nid bid =
  bid >= 0 && bid < Array.length t.bcasts && Atum_util.Bitset.mem t.bcasts.(bid).delivered nid

let mark_delivered t nid bid = Atum_util.Bitset.set (bcast t bid).delivered nid

(* [f] on each bid [nid] delivered, ascending. *)
let iter_delivered t nid f =
  Array.iteri (fun bid b -> if Atum_util.Bitset.mem b.delivered nid then f bid) t.bcasts

let delivered t nid =
  let acc = ref [] in
  iter_delivered t nid (fun bid -> acc := bid :: !acc);
  List.rev !acc

(* [nid] delivered nothing, as after a restart wiped it or before its
   id is reused. *)
let forget_delivered t nid = Array.iter (fun b -> Atum_util.Bitset.unset b.delivered nid) t.bcasts

let strategy_name = function
  | Mute -> "mute"
  | Equivocate -> "equivocate"
  | Selective_drop _ -> "selective_drop"
  | Flood _ -> "flood"
  | Join_leave_attack -> "join_leave"
  | Target_vgroup _ -> "target_vgroup"

(* A targeted attacker behaves on the wire as its [inner] strategy;
   the targeting itself only drives where the node joins. *)
let effective_strategy n =
  match n.strategy with Target_vgroup { inner; _ } -> inner | s -> s

(* Liveness/membership mutators.  Every change to [n.vg], [n.alive]
   or a vgroup's lifecycle funnels through these so the O(1) counters
   and the dirty log stay exact. *)
let is_live n = n.alive && Option.is_some n.vg

let count_live t n delta =
  t.live_count <- t.live_count + delta;
  if n.byzantine then t.live_byz_count <- t.live_byz_count + delta

(* --- durable-state hooks (WAL append + snapshot fold) --------------- *)

module Json = Atum_util.Json
module Replica = Atum_store.Replica

(* Everything a node needs to come back cold: its registry pointer,
   its delivered-broadcast set, and whatever the application exports,
   written straight into the store's buffer as the compact JSON
   [{"vid":_,"delivered":[_],"app":_}].  WAL records since the last
   snapshot replay on top of this. *)
let write_node_snapshot t (n : node) buf =
  Buffer.add_string buf "{\"vid\":";
  (match n.vg with Some v -> Json.add_int buf v | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"delivered\":[";
  let first = ref true in
  iter_delivered t n.id (fun b ->
      if !first then first := false else Buffer.add_char buf ',';
      Json.add_int buf b);
  Buffer.add_string buf "],\"app\":";
  (match t.app_export with Some write -> write n.id buf | None -> Buffer.add_string buf "null");
  Buffer.add_char buf '}'

let snapshot_if_due t (n : node) =
  match t.store with
  | Some store when Replica.needs_snapshot store ~node:n.id ->
    Replica.save_snapshot store ~node:n.id (write_node_snapshot t n)
  | _ -> ()

let persist t (n : node) record =
  match t.store with
  | None -> ()
  | Some store ->
    Replica.append store ~node:n.id (Replica.frame store record);
    snapshot_if_due t n

let persist_vg t (n : node) =
  persist t n
    (Json.Obj
       [
         ("t", Json.String "vg");
         ("vid", (match n.vg with Some v -> Json.Int v | None -> Json.Null));
       ])

let set_node_vg t n vg =
  (match n.vg with Some v -> mark_dirty t v | None -> ());
  (match vg with Some v -> mark_dirty t v | None -> ());
  let was = is_live n in
  n.vg <- vg;
  let is = is_live n in
  if was && not is then count_live t n (-1) else if (not was) && is then count_live t n 1;
  if Option.is_some t.store then persist_vg t n

let set_node_alive t n alive =
  (match n.vg with Some v -> mark_dirty t v | None -> ());
  let was = is_live n in
  n.alive <- alive;
  let is = is_live n in
  if was && not is then count_live t n (-1) else if (not was) && is then count_live t n 1

let retire_vgroup t vg =
  if not vg.retired then begin
    vg.retired <- true;
    t.active_vgroups <- t.active_vgroups - 1;
    mark_dirty t vg.vid
  end

let add_vgroup t ~members =
  let vid =
    Atum_util.Arena.alloc_with t.vgroups (fun vid ->
        {
          vid;
          roster = roster [];
          epoch = 0;
          smr = None;
          pending = [];
          busy = false;
          retired = false;
          nbrs_gen = -1;
          nbrs = [];
          fwd_bid = -1;
          fwd_targets = [];
          rounds = [];
        })
  in
  t.active_vgroups <- t.active_vgroups + 1;
  let vg = vgroup t vid in
  set_members t vg members;
  vg

(* ------------------------------------------------------------------ *)
(* The saga table: the only writer of [vgroup.busy]                    *)
(* ------------------------------------------------------------------ *)

let saga_name = function
  | Join -> "join" | Leave -> "leave" | Evict -> "evict" | Split -> "split" | Merge -> "merge"
  | Shuffle -> "shuffle" | Exchange -> "exchange"

let enter t kind waits =
  let s =
    { id = t.sagas.next_saga; kind; span = -1; phase = Proposing; vgroups = []; nodes = []; at = -1;
      waits; deadline = infinity }
  in
  t.sagas.next_saga <- s.id + 1;
  Hashtbl.replace t.sagas.live s.id s;
  s

(* One awaited agreement or walk is back; whether it was the last. *)
let arrived s =
  match s.waits with
  | Agreements n -> s.waits <- Agreements (n - 1); n = 1
  | Walks n -> s.waits <- Walks (n - 1); n = 1
  | Message -> true

(* The one schedule site of saga timers: a hold's timeout and a
   departure's re-issue, which are the saga's deadline, a merge's retry
   and a walk's restart. *)
let after t ?saga ~label ~delay f =
  Option.iter (fun s -> s.deadline <- now t +. delay) saga;
  Engine.schedule ~label t.engine ~delay f

let take t s vg =
  vg.busy <- true;
  Hashtbl.replace t.sagas.held vg.vid s;
  s.vgroups <- s.vgroups @ [ vg.vid ];
  s.phase <- Holding

let release t vid =
  Hashtbl.remove t.sagas.held vid;
  (vgroup t vid).busy <- false

let in_flight t s = Hashtbl.mem t.sagas.live s.id

let park t vid resume =
  let parked = Option.value ~default:[] (Hashtbl.find_opt t.sagas.parked vid) in
  Hashtbl.replace t.sagas.parked vid (resume :: parked)

(* [vid] was placed or retired: its parked walks go on, oldest first. *)
let wake t vid =
  match Hashtbl.find_opt t.sagas.parked vid with
  | Some parked ->
    Hashtbl.remove t.sagas.parked vid;
    List.iter (fun resume -> resume ()) (List.rev parked)
  | None -> ()

(* The saga leaves the table, releases every vgroup it took (also one
   its timeout released and a later saga took since) and, if it is an
   exchange, its two nodes, and ends its span. *)
let finish t s ?node ?vgroup () =
  Hashtbl.remove t.sagas.live s.id;
  List.iter (release t) s.vgroups;
  if s.kind = Exchange then List.iter (Hashtbl.remove t.sagas.engaged) s.nodes;
  if s.span >= 0 then span_end t ~saga:(saga_name s.kind) ?node ?vgroup s.span

(* Whether a shuffle was queued on [vg]; it no longer is. *)
let dequeue t vg =
  let queued = Hashtbl.mem t.sagas.queued vg.vid in
  Hashtbl.remove t.sagas.queued vg.vid;
  queued

let engaged t nid = Hashtbl.mem t.sagas.engaged nid

let idle t vg = (not vg.busy) && not (Hashtbl.mem t.sagas.queued vg.vid)

let sagas t =
  List.sort (fun a b -> Int.compare a.id b.id) (Hashtbl.fold (fun _ s acc -> s :: acc) t.sagas.live [])

(* In ascending id order (the arena walks slots in index order):
   callers feed this list to seeded Rng picks (Builder, Churn), so
   its order is part of the reproducible state. *)
let live_nodes t =
  List.rev
    (Atum_util.Arena.fold
       (fun _ n acc -> if n.alive && Option.is_some n.vg then n :: acc else acc)
       t.nodes [])

(* Ascending (node, bid) pairs: the arena walks nodes in id order. *)
let partial_votes t =
  List.rev
    (Atum_util.Arena.fold
       (fun _ (n : node) acc ->
         List.fold_left
           (fun acc bid -> (n.id, bid) :: acc)
           acc
           (List.sort_uniq Int.compare (List.map (fun v -> v.v_bid) n.votes)))
       t.nodes [])

(* O(1): maintained by the membership/liveness mutators below. *)
let system_size t = t.live_count

let live_byzantine_count t = t.live_byz_count

let vgroup_count t = t.active_vgroups

let vgroup_ids t =
  (* Every vgroup id ever created, retired ones included: dense ids
     make that exactly [0 .. length-1]. *)
  List.init (Atum_util.Arena.length t.vgroups) (fun i -> i)

let vgroup_sizes t =
  List.rev
    (Atum_util.Arena.fold
       (fun _ vg acc -> if vg.retired then acc else size vg :: acc)
       t.vgroups [])

let fresh_gm_id t =
  let id = t.next_gm in
  t.next_gm <- id + 1;
  id

(* In the synchronous deployment every protocol step is taken at a
   round boundary; in the asynchronous one, immediately. *)
let defer t f =
  match t.rounds with
  | None -> f ()
  | Some r ->
    let d = Rounds.round_duration r in
    let next = (Float.floor (now t /. d) +. 1.0) *. d in
    Engine.schedule_at ~label:"system.defer" t.engine ~time:next f
