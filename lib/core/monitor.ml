(* Online invariant monitor: continuous, cheap re-checking of the
   registry properties that [System.check_consistency] asserts only
   when a test calls it.  The monitor piggybacks on the simulation in
   two ways: a periodic engine task sweeps every vgroup, and the
   [System.audit] hook re-checks the touched vgroup synchronously on
   every reconfiguration and screens every delivery.

   Violations are counted per kind under the "monitor.violation.*"
   metrics namespace, mirrored as trace events, and can optionally
   abort the run (fail-fast). *)

module Engine = Atum_sim.Engine
module Metrics = Atum_sim.Metrics
module Network = Atum_sim.Network
module Trace = Atum_sim.Trace
module Hgraph = Atum_overlay.Hgraph

type config = {
  period : float;  (* seconds between full sweeps *)
  s_lo : int;  (* inclusive lower bound on active vgroup size *)
  s_hi : int;  (* inclusive upper bound on active vgroup size *)
  fail_fast : bool;
}

let default_config (p : Params.t) =
  (* A vgroup legitimately overshoots gmax while joins pile up faster
     than its split drains it and undershoots gmin while a merge
     empties it, so the hard envelope is twice the configured maximum
     and "non-empty" — and it only applies to quiescent vgroups (no
     saga running or queued that would correct the size). *)
  { period = 5.0; s_lo = 1; s_hi = 2 * p.gmax; fail_fast = false }

exception Violation of string

type t = {
  sys : System.t;
  cfg : config;
  counts : (string, int ref) Hashtbl.t;
  seen : (System.node_id * int, unit) Hashtbl.t; (* (node, bid) delivered *)
  mutable cursor : int; (* position in the system's dirty log *)
  retained : (int, unit) Hashtbl.t; (* vgroups violating at last check *)
  mutable active : bool;
  flight : Atum_sim.Flight.t option; (* postmortem recorder to trip *)
}

let violations t =
  List.map
    (fun (k, r) -> (k, !r))
    (Atum_util.Hashtbl_ext.sorted_bindings ~cmp:String.compare t.counts)

let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t.counts 0

let violate t kind ?node ?vgroup ?bid detail =
  (match Hashtbl.find_opt t.counts kind with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts kind (ref 1));
  let name = "monitor.violation." ^ kind in
  Metrics.incr (System.metrics t.sys) name;
  let trace = System.trace t.sys in
  if Trace.enabled trace then
    Trace.emit trace ~time:(System.now t.sys) ~kind:name ?node ?vgroup ?bid ();
  (* Trip the flight recorder before a fail-fast raise can unwind, so
     the postmortem captures state at the moment of the violation. *)
  (match t.flight with
  | Some fl -> Atum_sim.Flight.trip fl ~reason:name ~detail ?node ?vgroup ?bid ()
  | None -> ());
  if t.cfg.fail_fast then raise (Violation (kind ^ ": " ^ detail))

(* Size envelope, Byzantine minority, and no-traffic-to-retired for one
   vgroup.  [transient] relaxes the emptiness check: a vgroup is
   legitimately empty for the instant between losing its last member
   and being retired, and the audit hook fires inside that window. *)
let check_vgroup t ~transient vid =
  match System.vgroup_opt t.sys vid with
  | None -> ()
  | Some vg ->
    if vg.System.retired then begin
      (* The overlay must drop a vgroup before (or at the moment) it
         retires; a retired vertex would keep attracting gossip. *)
      if Hgraph.mem (System.hgraph t.sys) vid && System.vgroup_count t.sys > 0 then
        violate t "retired_reachable" ~vgroup:vid
          (Printf.sprintf "retired vgroup %d still in overlay" vid)
    end
    else begin
      let size = System.size vg in
      (* The size envelope is only meaningful for a quiescent vgroup:
         at audit time [check_size] has not run yet, and a vgroup a
         saga holds or has queued a shuffle on is already being
         corrected (splits and
         merges re-check the size synchronously when they finish, so a
         healthy out-of-envelope vgroup is never idle). *)
      if (not transient) && System.idle t.sys vg then begin
        if size > t.cfg.s_hi then
          violate t "vg_oversize" ~vgroup:vid
            (Printf.sprintf "vgroup %d has %d members (max %d)" vid size t.cfg.s_hi);
        if size < t.cfg.s_lo then
          violate t "vg_undersize" ~vgroup:vid
            (Printf.sprintf "vgroup %d has %d members (min %d)" vid size t.cfg.s_lo)
      end;
      let byzantine m =
        match System.node_opt t.sys m with Some n -> n.System.byzantine | None -> false
      in
      let byz = List.length (List.filter byzantine (System.members vg)) in
      if byz > 0 && 2 * byz >= size then
        violate t "byz_majority" ~vgroup:vid
          (Printf.sprintf "vgroup %d has %d Byzantine of %d members" vid byz size);
      (* Fault awareness (chaos layer): an active vgroup whose live
         members straddle a network partition cannot reach agreement,
         and a crashed member erodes its correct majority.  Both are
         counted every sweep while the fault lasts and stop accruing
         the moment the network heals / the node recovers (or is
         evicted) — which is exactly the signal the recovery
         verifier's time-to-heal measurement polls for. *)
      let net = System.network t.sys in
      let live = List.filter (fun m -> not (Network.is_crashed net m)) (System.members vg) in
      (match live with
      | [] | [ _ ] -> ()
      | first :: rest ->
        let tag = Network.partition_of net first in
        if List.exists (fun m -> Network.partition_of net m <> tag) rest then
          violate t "vg_partitioned" ~vgroup:vid
            (Printf.sprintf "vgroup %d members span multiple partitions" vid));
      List.iter
        (fun m ->
          if Network.is_crashed net m then
            violate t "vg_crashed" ~node:m ~vgroup:vid
              (Printf.sprintf "vgroup %d member %d is crashed" vid m))
        (System.members vg)
    end

(* One vgroup check with retention bookkeeping: a vgroup that
   violates stays in [retained] and is re-examined on every
   subsequent incremental sweep until it checks clean — persisting
   faults keep accruing exactly as they do under a full scan. *)
let check_and_retain t vid =
  Metrics.incr (System.metrics t.sys) "monitor.sweep.checked";
  let before = total t in
  check_vgroup t ~transient:false vid;
  if total t > before then Hashtbl.replace t.retained vid ()
  else Hashtbl.remove t.retained vid

let sweep t =
  let before = total t in
  List.iter (check_and_retain t) (System.vgroup_ids t.sys);
  t.cursor <- System.dirty_cursor t.sys;
  total t - before

(* Vgroups that host a faulted node right now.  Fault-kind violations
   ([vg_crashed], [vg_partitioned]) depend on network state the dirty
   log does not see, so the incremental sweep always re-checks these;
   both lists are empty (O(1)) on a healthy network. *)
let fault_candidates t =
  let net = System.network t.sys in
  let vg_of nid =
    match System.node_opt t.sys nid with Some n -> n.System.vg | None -> None
  in
  List.filter_map vg_of (Network.crashed_nodes net)
  @ List.filter_map vg_of (Network.partitioned_nodes net)

let sweep_dirty t =
  let before = total t in
  let dirty = System.dirty_since t.sys t.cursor in
  t.cursor <- System.dirty_cursor t.sys;
  let retained = Hashtbl.fold (fun v () acc -> v :: acc) t.retained [] in
  let vids =
    List.sort_uniq Int.compare
      (List.rev_append retained (List.rev_append (fault_candidates t) dirty))
  in
  List.iter (check_and_retain t) vids;
  total t - before

let on_audit t = function
  | System.Audit_reconfig vid -> check_vgroup t ~transient:true vid
  | System.Audit_deliver { node; bid; body } ->
    (match System.sent_body t.sys bid with
    | None ->
      violate t "unknown_bid" ~node ~bid
        (Printf.sprintf "node %d delivered bid %d that was never broadcast" node bid)
    | Some sent ->
      if not (String.equal sent body) then
        violate t "forged_delivery" ~node ~bid
          (Printf.sprintf "node %d delivered a body of bid %d its origin never sent" node bid));
    if Hashtbl.mem t.seen (node, bid) then
      violate t "dup_delivery" ~node ~bid
        (Printf.sprintf "node %d delivered bid %d twice" node bid)
    else Hashtbl.replace t.seen (node, bid) ()

let detach t =
  if t.active then begin
    t.active <- false;
    System.set_audit t.sys None
  end

let attach ?config ?flight sys =
  let cfg =
    match config with Some c -> c | None -> default_config (System.params sys)
  in
  if cfg.period <= 0.0 then invalid_arg "Monitor.attach: period must be positive";
  let t =
    {
      sys;
      cfg;
      counts = Hashtbl.create 8;
      seen = Hashtbl.create 1024;
      cursor = 0;
      retained = Hashtbl.create 32;
      active = true;
      flight;
    }
  in
  System.set_audit sys (Some (fun a -> if t.active then on_audit t a));
  (* The sweep only reads simulation state, so interleaving it with
     protocol events cannot perturb a seeded run's behaviour.  The
     periodic task uses the incremental variant: cost scales with the
     vgroups that changed since the last tick, not the system size. *)
  Engine.every ~label:"monitor.sweep" (System.engine sys) ~period:cfg.period (fun () ->
      if t.active then ignore (sweep_dirty t);
      t.active);
  t
