(* Scale-engine regression tests: dense id arenas, bulk construction,
   vgroup-round gossip batching, and the flat-cost accounting paths
   (O(1) gauges, incremental monitor sweeps, hoisted gossip sorts)
   that the million-node trajectory depends on. *)

open Atum_core

let scale_params ?(seed = 41) n = Params.for_system_size ~seed n

let check_ok label = function
  | Ok () -> ()
  | Error e -> Alcotest.fail (label ^ ": " ^ e)

(* Build a system with [build_direct], broadcast from the first node,
   and run to saturation.  Returns (sys, node ids). *)
let build_and_broadcast ?seed n =
  let sys = System.create (scale_params ?seed n) in
  let ids = System.build_direct sys ~nodes:n () in
  let metrics = System.metrics sys in
  let delivered () = Atum_sim.Metrics.counter metrics "broadcast.delivered" in
  ignore (System.broadcast sys ~from:(List.hd ids) "probe");
  let stalls = ref 0 in
  while delivered () < n && !stalls < 2 do
    let before = delivered () in
    System.run_for sys 120.0;
    if delivered () = before then incr stalls else stalls := 0
  done;
  (sys, ids)

(* ------------------------------------------------------------------ *)
(* Id arena recycling                                                  *)
(* ------------------------------------------------------------------ *)

(* The raw arena: released slots are reused lowest-first and never
   alias a live slot. *)
let test_arena_recycling () =
  let a = Atum_util.Arena.create ~cap:2 () in
  let ids = List.init 5 (fun i -> Atum_util.Arena.alloc a (100 + i)) in
  Alcotest.(check (list int)) "dense ids" [ 0; 1; 2; 3; 4 ] ids;
  Atum_util.Arena.release a 3;
  Atum_util.Arena.release a 1;
  Alcotest.(check int) "live after release" 3 (Atum_util.Arena.live a);
  Alcotest.(check int) "lowest free id first" 1 (Atum_util.Arena.alloc a 201);
  Alcotest.(check int) "next free id" 3 (Atum_util.Arena.alloc a 203);
  Alcotest.(check int) "fresh id past high water" 5 (Atum_util.Arena.alloc a 205);
  (* Survivors kept their values: recycling never clobbered a live slot. *)
  List.iter
    (fun i -> Alcotest.(check int) "survivor intact" (100 + i) (Atum_util.Arena.find a i))
    [ 0; 2; 4 ];
  Alcotest.(check int) "recycled slot holds new value" 201 (Atum_util.Arena.find a 1)

(* System level: a node that leaves under id recycling frees its id
   for the next spawn, without disturbing the live population. *)
let test_node_id_recycling () =
  let n = 60 in
  let sys = System.create (scale_params n) in
  let ids = System.build_direct sys ~nodes:n () in
  System.set_id_recycling sys true;
  let target = List.nth ids (n / 2) in
  let gone = ref false in
  System.leave sys ~target ~k:(fun () -> gone := true) ();
  let deadline = System.now sys +. 600.0 in
  while (not !gone) && System.now sys < deadline do
    System.run_for sys 5.0
  done;
  Alcotest.(check bool) "leave completed" true !gone;
  Alcotest.(check int) "size dropped" (n - 1) (System.system_size sys);
  (* The departed id is back on the free list: the next spawn reuses
     it instead of extending the arena. *)
  let fresh = System.spawn_node sys () in
  Alcotest.(check int) "id recycled" target fresh;
  let nn = System.node sys fresh in
  Alcotest.(check bool) "recycled node starts outside" true (nn.System.vg = None);
  (* No aliasing: every live node still backlinks consistently. *)
  check_ok "registry after recycle" (System.check_consistency sys)

(* ------------------------------------------------------------------ *)
(* Bulk growth smoke (CI-capped stand-in for the 1M bench tier)        *)
(* ------------------------------------------------------------------ *)

let test_grow_smoke () =
  let n = 2_000 in
  let sys, _ = build_and_broadcast n in
  let metrics = System.metrics sys in
  Alcotest.(check int) "all delivered" n
    (Atum_sim.Metrics.counter metrics "broadcast.delivered");
  Alcotest.(check int) "size" n (System.system_size sys);
  check_ok "registry" (System.check_consistency sys);
  (* Dense construction really is dense: ids are exactly 0..n-1. *)
  let hw = List.fold_left max 0 (List.map (fun (nd : System.node) -> nd.System.id)
                                   (System.live_nodes sys)) in
  Alcotest.(check int) "ids dense" (n - 1) hw

(* ------------------------------------------------------------------ *)
(* Same-seed determinism of the dense-id fast path                     *)
(* ------------------------------------------------------------------ *)

let test_dense_determinism () =
  let fingerprint () =
    let sys, _ = build_and_broadcast ~seed:43 1_000 in
    Printf.sprintf "%d/%.6f/%s"
      (Atum_sim.Engine.events_processed (System.engine sys))
      (System.now sys)
      (Atum_util.Json.to_string
         Atum_sim.Artifact.(encode metrics (metrics_of (System.metrics sys))))
  in
  let a = fingerprint () in
  let b = fingerprint () in
  Alcotest.(check string) "two invocations byte-identical" a b

(* ------------------------------------------------------------------ *)
(* Flat-cost accounting paths                                          *)
(* ------------------------------------------------------------------ *)

(* Telemetry gauges are O(1) reads: a window of samples performs no
   registry sort at all (the pre-arena size gauge sorted the whole
   live-node list on every sample). *)
let test_gauges_do_not_sort () =
  let n = 500 in
  let sys = System.create (scale_params n) in
  ignore (System.build_direct sys ~nodes:n ());
  ignore (System.attach_telemetry ~period:1.0 sys);
  System.run_for sys 2.0 (* let the first samples land *);
  let tel = match System.telemetry sys with Some t -> t | None -> assert false in
  let k0 = Atum_sim.Telemetry.samples_total tel in
  let s0 = Atum_util.Hashtbl_ext.sorts_performed () in
  System.run_for sys 20.0;
  let sorts = Atum_util.Hashtbl_ext.sorts_performed () - s0 in
  let samples = Atum_sim.Telemetry.samples_total tel - k0 in
  Alcotest.(check bool) "samples landed" true (samples >= 10);
  Alcotest.(check int) "no sort per gauge sample" 0 sorts

(* The per-delivery [chosen]-table sort is hoisted: a full broadcast
   performs at most one gossip-view sort per vgroup (cached against
   the overlay generation), not one per delivery. *)
let test_gossip_sorts_hoisted () =
  let n = 1_000 in
  let sys = System.create (scale_params n) in
  let ids = System.build_direct sys ~nodes:n () in
  let metrics = System.metrics sys in
  let delivered () = Atum_sim.Metrics.counter metrics "broadcast.delivered" in
  let s0 = Atum_util.Hashtbl_ext.sorts_performed () in
  ignore (System.broadcast sys ~from:(List.hd ids) "probe");
  let stalls = ref 0 in
  while delivered () < n && !stalls < 2 do
    let before = delivered () in
    System.run_for sys 120.0;
    if delivered () = before then incr stalls else stalls := 0
  done;
  Alcotest.(check int) "all delivered" n (delivered ());
  let sorts = Atum_util.Hashtbl_ext.sorts_performed () - s0 in
  let vgroups = System.vgroup_count sys in
  Alcotest.(check bool)
    (Printf.sprintf "sorts (%d) bounded by vgroups (%d), not deliveries (%d)" sorts
       vgroups n)
    true
    (sorts <= vgroups + 4);
  let rebuilt = Atum_sim.Metrics.counter metrics "gossip.view.rebuilt" in
  Alcotest.(check bool) "views rebuilt once per vgroup" true (rebuilt <= vgroups)

(* Incremental monitor sweeps examine the touched set, not the world:
   across a quiet window the periodic sweeps check far fewer vgroups
   than (full scans x vgroup count) would. *)
let test_monitor_sweep_incremental () =
  let n = 600 in
  let sys = System.create (scale_params n) in
  ignore (System.build_direct sys ~nodes:n ());
  let mon = Monitor.attach sys in
  System.run_for sys 6.0 (* first sweep drains the construction dirty log *);
  let metrics = System.metrics sys in
  let c0 = Atum_sim.Metrics.counter metrics "monitor.sweep.checked" in
  System.run_for sys 50.0 (* ~10 periodic sweeps, nothing changing *);
  let quiet = Atum_sim.Metrics.counter metrics "monitor.sweep.checked" - c0 in
  let vgroups = System.vgroup_count sys in
  Alcotest.(check bool)
    (Printf.sprintf "quiet sweeps check %d vgroups, full scans would check >= %d" quiet
       (10 * vgroups))
    true
    (quiet < vgroups);
  Alcotest.(check int) "no violations" 0 (Monitor.total mon);
  Monitor.detach mon

let () =
  Alcotest.run "scale"
    [
      ( "arena",
        [
          Alcotest.test_case "recycles ids without aliasing" `Quick test_arena_recycling;
          Alcotest.test_case "node ids recycle through leave" `Slow test_node_id_recycling;
        ] );
      ( "growth",
        [
          Alcotest.test_case "bulk grow + broadcast smoke" `Slow test_grow_smoke;
          Alcotest.test_case "same-seed dense runs identical" `Slow test_dense_determinism;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "gauge sampling performs no sort" `Slow test_gauges_do_not_sort;
          Alcotest.test_case "gossip sorts hoisted per saga" `Slow test_gossip_sorts_hoisted;
          Alcotest.test_case "monitor sweeps are incremental" `Slow
            test_monitor_sweep_incremental;
        ] );
    ]
