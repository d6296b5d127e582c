type t = System.t

type node_id = int

let create ?(params = Params.default) ?net_config ?trace_capacity () =
  System.create ?net_config ?trace_capacity params

let bootstrap t = System.bootstrap t ()

let join_with t ?(byzantine = false) ~contact ~on_joined () =
  let id = System.spawn_node t ~byzantine () in
  System.join t ~joiner:id ~contact ~k:(fun _vid -> on_joined id) ();
  id

let join t ?byzantine ~contact () = join_with t ?byzantine ~contact ~on_joined:ignore ()

let leave t nid = System.leave t ~target:nid ()

let broadcast t ~from body = System.broadcast t ~from body

let on_deliver t f = System.set_deliver t f

let on_forward t f = System.set_forward_policy t f

let crash t nid = System.crash t nid

let start_heartbeats = System.start_heartbeats

let run_for = System.run_for
let run_until = System.run_until
let now = System.now

let size = System.system_size
let vgroup_count = System.vgroup_count
let vgroup_sizes = System.vgroup_sizes

let is_member t nid =
  match System.node_opt t nid with
  | Some n -> n.System.alive && n.System.vg <> None
  | None -> false

let vgroup_of t nid =
  match System.node_opt t nid with Some n -> n.System.vg | None -> None

let members_of_vgroup t vid =
  match System.vgroup_opt t vid with Some vg -> System.members vg | None -> []

let metrics = System.metrics
let trace = System.trace
let engine = System.engine
let attach_telemetry = System.attach_telemetry
let telemetry = System.telemetry

let messages_sent t = Atum_sim.Network.messages_sent (System.network t)
let bytes_sent t = Atum_sim.Network.bytes_sent (System.network t)

let params = System.params

let check_overlay t = Atum_overlay.Hgraph.check_invariants (System.hgraph t)

let system t = t

let check_consistency = System.check_consistency
