open Atum_core

let quick_sync_params =
  (* Small rounds and short walks keep unit-test simulations fast. *)
  {
    Params.default with
    Params.hc = 3;
    rwl = 4;
    round_duration = 0.5;
    seed = 11;
  }

let quick_async_params =
  { Params.default_async with Params.hc = 3; rwl = 4; pbft_timeout = 1.0; seed = 12 }

let check_ok label = function
  | Ok () -> ()
  | Error e -> Alcotest.fail (label ^ ": " ^ e)

(* Grow a system by joining nodes through random existing members,
   giving each batch time to settle. *)
let grow t ~target ~settle =
  let first = Atum.bootstrap t in
  let members = ref [ first ] in
  let rng = Atum_util.Rng.create 5 in
  while Atum.size t < target do
    let batch = min 4 (target - Atum.size t) in
    for _ = 1 to batch do
      let contact = Atum_util.Rng.pick rng !members in
      ignore (Atum.join t ~contact ())
    done;
    Atum.run_for t settle;
    members :=
      List.filter_map
        (fun (n : System.node) -> if n.System.alive then Some n.System.id else None)
        (System.live_nodes (Atum.system t))
  done;
  first

(* ------------------------------------------------------------------ *)
(* Bootstrap and basic lifecycle                                       *)
(* ------------------------------------------------------------------ *)

let test_bootstrap () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = Atum.bootstrap t in
  Alcotest.(check int) "one node" 1 (Atum.size t);
  Alcotest.(check int) "one vgroup" 1 (Atum.vgroup_count t);
  Alcotest.(check bool) "member" true (Atum.is_member t n0);
  check_ok "overlay" (Atum.check_overlay t);
  check_ok "registry" (Atum.check_consistency t)

let test_bootstrap_twice_rejected () =
  let t = Atum.create ~params:quick_sync_params () in
  ignore (Atum.bootstrap t);
  Alcotest.check_raises "double bootstrap"
    (Invalid_argument "System.bootstrap: already bootstrapped") (fun () ->
      ignore (Atum.bootstrap t))

let test_self_broadcast () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = Atum.bootstrap t in
  let got = ref [] in
  Atum.on_deliver t (fun nid ~bid:_ ~origin body -> got := (nid, origin, body) :: !got);
  ignore (Atum.broadcast t ~from:n0 "hello");
  Atum.run_for t 10.0;
  Alcotest.(check (list (triple int int string))) "delivered to self"
    [ (n0, n0, "hello") ] !got

let test_single_join () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = Atum.bootstrap t in
  let joined = ref None in
  let n1 = Atum.join_with t ~contact:n0 ~on_joined:(fun id -> joined := Some id) () in
  Atum.run_for t 60.0;
  Alcotest.(check bool) "join callback fired" true (!joined = Some n1);
  Alcotest.(check int) "two nodes" 2 (Atum.size t);
  check_ok "registry" (Atum.check_consistency t)

let test_grow_sync () =
  let t = Atum.create ~params:quick_sync_params () in
  ignore (grow t ~target:24 ~settle:120.0);
  Atum.run_for t 200.0;
  Alcotest.(check int) "grew to 24" 24 (Atum.size t);
  check_ok "overlay" (Atum.check_overlay t);
  check_ok "registry" (Atum.check_consistency t);
  (* Logarithmic grouping: with gmax = 8, 24 nodes need >= 3 vgroups,
     and no vgroup may exceed gmax for long after settling. *)
  Alcotest.(check bool) "multiple vgroups" true (Atum.vgroup_count t >= 3);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "vgroup size %d within [1, gmax+1]" s)
        true
        (s >= 1 && s <= quick_sync_params.Params.gmax + 1))
    (Atum.vgroup_sizes t)

let test_grow_async () =
  let t = Atum.create ~params:quick_async_params () in
  ignore (grow t ~target:20 ~settle:60.0);
  Atum.run_for t 120.0;
  Alcotest.(check int) "grew to 20" 20 (Atum.size t);
  check_ok "overlay" (Atum.check_overlay t);
  check_ok "registry" (Atum.check_consistency t)

(* ------------------------------------------------------------------ *)
(* Broadcast dissemination                                             *)
(* ------------------------------------------------------------------ *)

let test_broadcast_reaches_all_sync () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:20 ~settle:120.0 in
  Atum.run_for t 200.0;
  let got = Hashtbl.create 32 in
  Atum.on_deliver t (fun nid ~bid:_ ~origin:_ _ -> Hashtbl.replace got nid ());
  ignore (Atum.broadcast t ~from:n0 "news");
  Atum.run_for t 60.0;
  Alcotest.(check int) "all nodes delivered" (Atum.size t) (Hashtbl.length got)

let test_broadcast_reaches_all_async () =
  let t = Atum.create ~params:quick_async_params () in
  let n0 = grow t ~target:16 ~settle:60.0 in
  Atum.run_for t 120.0;
  let got = Hashtbl.create 32 in
  Atum.on_deliver t (fun nid ~bid:_ ~origin:_ _ -> Hashtbl.replace got nid ());
  ignore (Atum.broadcast t ~from:n0 "news");
  Atum.run_for t 60.0;
  Alcotest.(check int) "all nodes delivered" (Atum.size t) (Hashtbl.length got)

let test_broadcast_multiple_messages_dedup () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:12 ~settle:120.0 in
  Atum.run_for t 120.0;
  let deliveries = ref 0 in
  Atum.on_deliver t (fun _ ~bid:_ ~origin:_ _ -> incr deliveries);
  ignore (Atum.broadcast t ~from:n0 "a");
  ignore (Atum.broadcast t ~from:n0 "b");
  Atum.run_for t 60.0;
  (* Each node delivers each broadcast exactly once. *)
  Alcotest.(check int) "n * messages" (2 * Atum.size t) !deliveries

let test_forward_single_cycle_still_delivers () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:16 ~settle:120.0 in
  Atum.run_for t 200.0;
  (* AStream-style: gossip only along cycle 0.  The ring structure
     still guarantees delivery, just more slowly. *)
  Atum.on_forward t (fun ~bid:_ ~from_vg:_ ~cycle ~neighbor:_ -> cycle = 0);
  let got = Hashtbl.create 32 in
  Atum.on_deliver t (fun nid ~bid:_ ~origin:_ _ -> Hashtbl.replace got nid ());
  ignore (Atum.broadcast t ~from:n0 "ring");
  Atum.run_for t 120.0;
  Alcotest.(check int) "all nodes delivered" (Atum.size t) (Hashtbl.length got)

(* The forward decision belongs to the vgroup: the callback runs once
   per (vgroup, broadcast, link), not once per forwarding member, and
   runs again only after the policy is replaced or the overlay changes. *)
let test_forward_decided_once_per_vgroup () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:16 ~settle:120.0 in
  Atum.run_for t 200.0;
  let sys = Atum.system t in
  let calls = Hashtbl.create 64 in
  Atum.on_forward t (fun ~bid ~from_vg ~cycle ~neighbor ->
      let k = (bid, from_vg, cycle, neighbor) in
      Hashtbl.replace calls k (1 + Option.value ~default:0 (Hashtbl.find_opt calls k));
      true);
  let delivered = ref 0 in
  Atum.on_deliver t (fun _ ~bid:_ ~origin:_ _ -> incr delivered);
  let bid = Atum.broadcast t ~from:n0 "once" in
  Atum.run_for t 120.0;
  Alcotest.(check int) "all nodes delivered" (Atum.size t) !delivered;
  Alcotest.(check bool) "fewer decisions than deliveries" true (Hashtbl.length calls < !delivered);
  Alcotest.(check int) "each link decided once" 1
    (Hashtbl.fold (fun _ n acc -> max n acc) calls 0);
  (* Direct calls now reuse the memo, until the policy is replaced. *)
  let live () =
    List.filter_map
      (fun vid ->
        match System.vgroup_opt sys vid with
        | Some vg when not vg.System.retired -> Some vg
        | _ -> None)
      (System.vgroup_ids sys)
  in
  let decide vgs = List.iter (fun vg -> ignore (System.gossip_targets sys vg ~bid)) vgs in
  let decide_all () = decide (live ()) in
  let before = Hashtbl.length calls in
  decide_all ();
  Alcotest.(check int) "memo hit: no new calls" before (Hashtbl.length calls);
  let replaced = ref 0 in
  System.set_forward_policy sys (fun ~bid:_ ~from_vg:_ ~cycle:_ ~neighbor:_ ->
      incr replaced;
      true);
  decide_all ();
  let after_policy = !replaced in
  Alcotest.(check bool) "new policy consulted" true (after_policy > 0);
  decide_all ();
  Alcotest.(check int) "and memoised" after_policy !replaced;
  (* An overlay change (a split as the system grows) invalidates the
     decisions of the vgroups that were there before it, too. *)
  let old = live () in
  let gen0 = Atum_overlay.Hgraph.generation (System.hgraph sys) in
  let joins = ref 0 in
  while Atum_overlay.Hgraph.generation (System.hgraph sys) = gen0 && !joins < 40 do
    ignore (Atum.join t ~contact:n0 ());
    incr joins;
    Atum.run_for t 30.0
  done;
  Alcotest.(check bool) "overlay changed" true
    (Atum_overlay.Hgraph.generation (System.hgraph sys) <> gen0);
  let before = !replaced in
  decide (List.filter (fun vg -> not vg.System.retired) old);
  Alcotest.(check bool) "recomputed after the overlay change" true (!replaced > before)

let test_broadcast_latency_bounded_sync () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:16 ~settle:120.0 in
  Atum.run_for t 200.0;
  ignore (Atum.broadcast t ~from:n0 "ping");
  Atum.run_for t 100.0;
  let lats = Atum_sim.Metrics.samples (Atum.metrics t) "broadcast.latency" in
  Alcotest.(check bool) "observed latencies" true (lats <> []);
  let worst = List.fold_left max 0.0 lats in
  (* Flooding on a 16-node system: a handful of rounds. *)
  Alcotest.(check bool)
    (Printf.sprintf "worst %.1fs bounded" worst)
    true
    (worst <= 20.0 *. quick_sync_params.Params.round_duration)

(* ------------------------------------------------------------------ *)
(* Leave, merge, eviction                                              *)
(* ------------------------------------------------------------------ *)

let test_leave () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:12 ~settle:120.0 in
  Atum.run_for t 120.0;
  ignore n0;
  let victim =
    List.find (fun (n : System.node) -> n.System.id <> n0) (System.live_nodes (Atum.system t))
  in
  Atum.leave t victim.System.id;
  Atum.run_for t 200.0;
  Alcotest.(check int) "one fewer node" 11 (Atum.size t);
  Alcotest.(check bool) "not a member" false (Atum.is_member t victim.System.id);
  check_ok "registry" (Atum.check_consistency t);
  check_ok "overlay" (Atum.check_overlay t)

let test_mass_leave_merges () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:24 ~settle:120.0 in
  Atum.run_for t 200.0;
  let groups_before = Atum.vgroup_count t in
  (* Remove half the system; vgroups must merge rather than starve. *)
  let victims =
    List.filter_map
      (fun (n : System.node) -> if n.System.id <> n0 then Some n.System.id else None)
      (System.live_nodes (Atum.system t))
  in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  List.iter (fun v -> Atum.leave t v) (take 12 victims);
  Atum.run_for t 400.0;
  Alcotest.(check int) "half remain" 12 (Atum.size t);
  Alcotest.(check bool)
    (Printf.sprintf "vgroups shrank (%d -> %d)" groups_before (Atum.vgroup_count t))
    true
    (Atum.vgroup_count t <= groups_before);
  check_ok "registry" (Atum.check_consistency t);
  check_ok "overlay" (Atum.check_overlay t)

let test_crash_eviction () =
  let params = { quick_sync_params with Params.heartbeat_period = 5.0; eviction_timeout = 15.0 } in
  let t = Atum.create ~params () in
  let n0 = grow t ~target:10 ~settle:120.0 in
  Atum.run_for t 120.0;
  Atum.start_heartbeats t;
  Atum.run_for t 20.0;
  let victim =
    List.find (fun (n : System.node) -> n.System.id <> n0) (System.live_nodes (Atum.system t))
  in
  Atum.crash t victim.System.id;
  Atum.run_for t 300.0;
  Alcotest.(check bool) "evicted from its vgroup" false (Atum.is_member t victim.System.id);
  Alcotest.(check int) "size dropped" 9 (Atum.size t);
  check_ok "registry" (Atum.check_consistency t)

let test_partitioned_minority_does_not_block () =
  (* §2: a limited number of nodes isolated by a partition count as
     faulty; the rest of the system keeps delivering broadcasts. *)
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:18 ~settle:120.0 in
  Atum.run_for t 200.0;
  let sys = Atum.system t in
  let rng = Atum_util.Rng.create 91 in
  let others =
    List.filter_map
      (fun (n : System.node) -> if n.System.id <> n0 then Some n.System.id else None)
      (System.live_nodes sys)
  in
  let isolated = Atum_util.Rng.sample_without_replacement rng 2 others in
  List.iter
    (fun nid -> Atum_sim.Network.set_partition (System.network sys) nid 99)
    isolated;
  let got = Hashtbl.create 32 in
  Atum.on_deliver t (fun nid ~bid:_ ~origin:_ _ -> Hashtbl.replace got nid ());
  ignore (Atum.broadcast t ~from:n0 "mainland");
  Atum.run_for t 60.0;
  Alcotest.(check int) "everyone outside the partition delivers"
    (Atum.size t - 2) (Hashtbl.length got);
  List.iter
    (fun nid -> Alcotest.(check bool) "isolated node missed it" false (Hashtbl.mem got nid))
    isolated;
  (* Heal: new broadcasts reach the returned nodes again. *)
  List.iter (fun nid -> Atum_sim.Network.set_partition (System.network sys) nid 0) isolated;
  Hashtbl.reset got;
  ignore (Atum.broadcast t ~from:n0 "after-heal");
  Atum.run_for t 60.0;
  Alcotest.(check int) "everyone delivers after healing" (Atum.size t) (Hashtbl.length got)

(* ------------------------------------------------------------------ *)
(* Byzantine behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let test_byzantine_minority_broadcast_still_works () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:18 ~settle:120.0 in
  Atum.run_for t 200.0;
  (* Mark ~11% of nodes Byzantine (quiet). *)
  let sys = Atum.system t in
  let rng = Atum_util.Rng.create 77 in
  let correct_nodes =
    List.filter_map
      (fun (n : System.node) -> if n.System.id <> n0 then Some n.System.id else None)
      (System.live_nodes sys)
  in
  let byz = Atum_util.Rng.sample_without_replacement rng 2 correct_nodes in
  List.iter (fun b -> System.make_byzantine sys b) byz;
  let got = Hashtbl.create 32 in
  Atum.on_deliver t (fun nid ~bid:_ ~origin:_ _ -> Hashtbl.replace got nid ());
  ignore (Atum.broadcast t ~from:n0 "resilient");
  Atum.run_for t 60.0;
  (* Every correct node delivers; Byzantine ones do not. *)
  Alcotest.(check int) "correct nodes delivered" (Atum.size t - 2) (Hashtbl.length got);
  List.iter
    (fun b -> Alcotest.(check bool) "byzantine silent" false (Hashtbl.mem got b))
    byz

let test_byzantine_not_evicted () =
  let params = { quick_sync_params with Params.heartbeat_period = 5.0; eviction_timeout = 15.0 } in
  let t = Atum.create ~params () in
  let n0 = grow t ~target:10 ~settle:120.0 in
  Atum.run_for t 120.0;
  Atum.start_heartbeats t;
  Atum.run_for t 20.0;
  let sys = Atum.system t in
  let victim =
    List.find (fun (n : System.node) -> n.System.id <> n0) (System.live_nodes sys)
  in
  System.make_byzantine sys victim.System.id;
  Atum.run_for t 300.0;
  (* Byzantine nodes keep heartbeating, so they are never evicted. *)
  Alcotest.(check bool) "still a member" true (Atum.is_member t victim.System.id)

let test_agreement_survives_reconfiguration () =
  (* SMART-style carry-over: an agreement still pending when its
     vgroup reconfigures is re-proposed into the new epoch and fires
     there — under Dolev-Strong (Sync) and PBFT (Async) alike.  Its
     proposer crashes right after proposing, so the op cannot execute
     in the epoch it was proposed in; evicting the proposer changes the
     epoch. *)
  List.iter
    (fun params ->
      let t = Atum.create ~params () in
      ignore (grow t ~target:16 ~settle:120.0);
      Atum.run_for t 300.0;
      let sys = Atum.system t in
      let vid = Option.get (Atum.vgroup_of t 0) in
      let vg = System.vgroup sys vid in
      let epoch = vg.System.epoch in
      let proposer = List.hd (System.correct_members sys vg) in
      let fired_in = ref None in
      System.agree sys vg "test-op" (fun () -> fired_in := Some vg.System.epoch);
      System.crash sys proposer;
      System.evict sys ~target:proposer ();
      Atum.run_for t 600.0;
      Alcotest.(check bool) "agreement fired in a later epoch" true
        (match !fired_in with Some e -> e > epoch | None -> false))
    [ quick_sync_params; quick_async_params ]

let test_broadcast_storm () =
  (* Every node publishes at once; every correct node must deliver
     every message exactly once. *)
  let t = Atum.create ~params:quick_sync_params () in
  ignore (grow t ~target:16 ~settle:120.0);
  Atum.run_for t 200.0;
  let senders =
    List.map (fun (n : System.node) -> n.System.id) (System.live_nodes (Atum.system t))
  in
  let deliveries = ref 0 in
  Atum.on_deliver t (fun _ ~bid:_ ~origin:_ _ -> incr deliveries);
  List.iter (fun s -> ignore (Atum.broadcast t ~from:s (Printf.sprintf "storm-%d" s))) senders;
  Atum.run_for t 120.0;
  Alcotest.(check int) "n^2 deliveries"
    (List.length senders * List.length senders)
    !deliveries

let test_crash_eviction_async () =
  let params =
    { quick_async_params with Params.heartbeat_period = 5.0; eviction_timeout = 15.0 }
  in
  let t = Atum.create ~params () in
  let n0 = grow t ~target:12 ~settle:60.0 in
  Atum.run_for t 120.0;
  Atum.start_heartbeats t;
  Atum.run_for t 20.0;
  let victim =
    List.find (fun (n : System.node) -> n.System.id <> n0) (System.live_nodes (Atum.system t))
  in
  Atum.crash t victim.System.id;
  Atum.run_for t 400.0;
  Alcotest.(check bool) "evicted (async deployment)" false (Atum.is_member t victim.System.id);
  check_ok "registry" (Atum.check_consistency t)

(* ------------------------------------------------------------------ *)
(* Shuffling and registry invariants under churn                       *)
(* ------------------------------------------------------------------ *)

let test_exchange_metrics_recorded () =
  let t = Atum.create ~params:quick_sync_params () in
  ignore (grow t ~target:24 ~settle:120.0);
  Atum.run_for t 400.0;
  let m = Atum.metrics t in
  let completed = Atum_sim.Metrics.counter m "exchange.completed" in
  let suppressed = Atum_sim.Metrics.counter m "exchange.suppressed" in
  Alcotest.(check bool)
    (Printf.sprintf "exchanges happened (completed=%d suppressed=%d)" completed suppressed)
    true
    (completed + suppressed > 0)

let prop_churn_preserves_invariants =
  QCheck.Test.make ~name:"random churn preserves registry and overlay invariants" ~count:5
    (QCheck.int_range 0 1000)
    (fun seed ->
      let params = { quick_sync_params with Params.seed = 100 + seed } in
      let t = Atum.create ~params () in
      let n0 = Atum.bootstrap t in
      let rng = Atum_util.Rng.create seed in
      for _ = 1 to 10 do
        let live = System.live_nodes (Atum.system t) in
        let ids = List.map (fun (n : System.node) -> n.System.id) live in
        if List.length ids < 6 || Atum_util.Rng.bool rng then
          ignore (Atum.join t ~contact:(Atum_util.Rng.pick rng ids) ())
        else begin
          let candidates = List.filter (fun i -> i <> n0) ids in
          if candidates <> [] then Atum.leave t (Atum_util.Rng.pick rng candidates)
        end;
        Atum.run_for t 90.0
      done;
      Atum.run_for t 300.0;
      (match Atum.check_consistency t with Ok () -> true | Error _ -> false)
      && match Atum.check_overlay t with Ok () -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Walks and size maintenance                                          *)
(* ------------------------------------------------------------------ *)

let test_walk_selects_live_vgroups () =
  let t = Atum.create ~params:quick_sync_params () in
  ignore (grow t ~target:24 ~settle:120.0);
  Atum.run_for t 300.0;
  let sys = Atum.system t in
  let from_vg = Option.get (Atum.vgroup_of t 0) in
  let results = ref [] in
  for _ = 1 to 12 do
    System.start_walk sys ~from_vg ~k:(fun v -> results := v :: !results)
  done;
  Atum.run_for t 600.0;
  Alcotest.(check int) "all walks completed" 12 (List.length !results);
  List.iter
    (fun v ->
      match System.vgroup_opt sys v with
      | Some vg -> Alcotest.(check bool) "live vgroup" false vg.System.retired
      | None -> Alcotest.fail "walk selected unknown vgroup")
    !results

let test_walk_spreads_over_vgroups () =
  let t = Atum.create ~params:quick_sync_params () in
  ignore (grow t ~target:30 ~settle:120.0);
  Atum.run_for t 300.0;
  let sys = Atum.system t in
  let from_vg = Option.get (Atum.vgroup_of t 0) in
  let results = ref [] in
  for _ = 1 to 40 do
    System.start_walk sys ~from_vg ~k:(fun v -> results := v :: !results)
  done;
  Atum.run_for t 2000.0;
  let distinct = List.length (List.sort_uniq compare !results) in
  Alcotest.(check bool)
    (Printf.sprintf "walks reach several vgroups (%d distinct)" distinct)
    true (distinct >= 2)

let test_oversized_vgroups_eventually_split () =
  (* Slam many concurrent joins through one contact, then check that
     logarithmic grouping brings every vgroup back under control even
     if some shuffles were suppressed along the way. *)
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = Atum.bootstrap t in
  for _ = 1 to 40 do
    ignore (Atum.join t ~contact:n0 ())
  done;
  Atum.run_for t 3000.0;
  Alcotest.(check int) "all joined" 41 (Atum.size t);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "size %d <= gmax + 1" s)
        true
        (s <= quick_sync_params.Params.gmax + 1))
    (Atum.vgroup_sizes t)

let test_async_walk_certificates_verified () =
  (* Async walks carry per-hop vgroup certificates; in a fault-free
     run every completed walk's chain verifies and none is rejected. *)
  let t = Atum.create ~params:quick_async_params () in
  ignore (grow t ~target:20 ~settle:60.0);
  Atum.run_for t 400.0;
  let m = Atum.metrics t in
  Alcotest.(check bool) "walks completed" true
    (Atum_sim.Metrics.counter m "walk.completed" > 0);
  Alcotest.(check int) "no certificate rejected" 0
    (Atum_sim.Metrics.counter m "walk.cert_rejected")

let test_byzantine_join () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:12 ~settle:120.0 in
  let b = Atum.join t ~byzantine:true ~contact:n0 () in
  Atum.run_for t 200.0;
  Alcotest.(check bool) "byzantine node joined" true (Atum.is_member t b);
  check_ok "registry" (Atum.check_consistency t)

let test_broadcast_from_nonmember_rejected () =
  let t = Atum.create ~params:quick_sync_params () in
  ignore (Atum.bootstrap t);
  let stranger = System.spawn_node (Atum.system t) () in
  Alcotest.check_raises "stranger broadcast"
    (Invalid_argument "System.broadcast: node not in the system") (fun () ->
      ignore (Atum.broadcast t ~from:stranger "spam"))

(* ------------------------------------------------------------------ *)
(* Online invariant monitor                                            *)
(* ------------------------------------------------------------------ *)

let active_vgroups sys =
  List.filter_map
    (fun vid ->
      match System.vgroup_opt sys vid with
      | Some vg when (not vg.System.retired) && System.members vg <> [] -> Some vg
      | _ -> None)
    (System.vgroup_ids sys)

let test_monitor_clean_run () =
  let t = Atum.create ~params:quick_sync_params () in
  let mon = Monitor.attach (Atum.system t) in
  let n0 = grow t ~target:20 ~settle:120.0 in
  Atum.run_for t 200.0;
  ignore (Atum.broadcast t ~from:n0 "news");
  Atum.run_for t 60.0;
  ignore (Monitor.sweep mon);
  Alcotest.(check int) "healthy run has no violations" 0 (Monitor.total mon);
  Alcotest.(check (list (pair string int))) "no violation counts" []
    (Monitor.violations mon)

let test_monitor_flags_forced_faults () =
  let t = Atum.create ~params:quick_sync_params () in
  ignore (grow t ~target:24 ~settle:120.0);
  Atum.run_for t 200.0;
  let sys = Atum.system t in
  let cfg = Monitor.default_config quick_sync_params in
  let mon = Monitor.attach ~config:{ cfg with Monitor.period = 1.0 } sys in
  (match active_vgroups sys with
  | vg1 :: vg2 :: vg3 :: _ ->
      (* Oversize: pad the membership list past the envelope. *)
      while System.size vg1 <= cfg.Monitor.s_hi do
        System.set_members sys vg1 (System.members vg1 @ System.members vg1)
      done;
      (* Byzantine majority: corrupt every member of one vgroup. *)
      List.iter (System.make_byzantine sys) (System.members vg2);
      (* Retired vgroup left wired into the overlay. *)
      vg3.System.retired <- true
  | _ -> Alcotest.fail "expected at least three active vgroups");
  let fresh = Monitor.sweep mon in
  Alcotest.(check bool) "sweep reports new violations" true (fresh >= 3);
  let count kind = List.assoc_opt kind (Monitor.violations mon) in
  let counted kind = match count kind with Some c -> c >= 1 | None -> false in
  Alcotest.(check bool) "vg_oversize flagged" true (counted "vg_oversize");
  Alcotest.(check bool) "byz_majority flagged" true (counted "byz_majority");
  Alcotest.(check bool) "retired_reachable flagged" true (counted "retired_reachable");
  (* Violations also land in the metrics namespace. *)
  let m = Atum.metrics t in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        ("monitor.violation." ^ kind ^ " counter")
        true
        (Atum_sim.Metrics.counter m ("monitor.violation." ^ kind) >= 1))
    [ "vg_oversize"; "byz_majority"; "retired_reachable" ];
  (* fail_fast: a fresh monitor over the same corrupted state raises. *)
  Monitor.detach mon;
  let strict =
    Monitor.attach ~config:{ cfg with Monitor.fail_fast = true } sys
  in
  Alcotest.(check bool) "fail_fast raises" true
    (try
       ignore (Monitor.sweep strict);
       false
     with Monitor.Violation _ -> true)

let test_monitor_dup_delivery () =
  let t = Atum.create ~params:quick_sync_params () in
  let n0 = grow t ~target:16 ~settle:120.0 in
  Atum.run_for t 200.0;
  let sys = Atum.system t in
  let mon = Monitor.attach sys in
  (* Flood maximizes redundant gossip, so after the delivery log is
     wiped some vgroup's still-in-flight copies re-trigger acceptance
     and the node delivers the same bid twice.  Wipe only on a node's
     first delivery — wiping every time would make gossip diverge. *)
  Atum.on_forward t (fun ~bid:_ ~from_vg:_ ~cycle:_ ~neighbor:_ -> true);
  let wiped = Hashtbl.create 32 in
  Atum.on_deliver t (fun nid ~bid:_ ~origin:_ _ ->
      if not (Hashtbl.mem wiped nid) then begin
        Hashtbl.add wiped nid ();
        Atum_util.Bitset.clear (System.node sys nid).System.delivered
      end);
  ignore (Atum.broadcast t ~from:n0 "once");
  Atum.run_for t 60.0;
  let dups = List.assoc_opt "dup_delivery" (Monitor.violations mon) in
  Alcotest.(check bool) "dup_delivery flagged" true
    (match dups with Some c -> c >= 1 | None -> false);
  Alcotest.(check bool) "dup_delivery counter" true
    (Atum_sim.Metrics.counter (Atum.metrics t) "monitor.violation.dup_delivery" >= 1)

(* ------------------------------------------------------------------ *)
(* Group messages and gossip acceptance state                          *)
(* ------------------------------------------------------------------ *)

(* A settled system built directly, with two distinct vgroups: the
   first node's and one of its overlay neighbors. *)
let direct_pair ?(params = quick_async_params) ~nodes () =
  let sys = System.create params in
  let ids = System.build_direct sys ~nodes () in
  let a = Option.get (System.node sys (List.hd ids)).System.vg in
  let b = List.find (fun v -> v <> a) (Atum_overlay.Hgraph.neighbor_set (System.hgraph sys) a) in
  (sys, ids, System.vgroup sys a, System.vgroup sys b)

(* Replace [nid]'s network handler by one that records what arrives;
   returns the recording, oldest first, and the real handler. *)
let hold sys nid =
  let net = System.network sys in
  let real = Option.get (Atum_sim.Network.handler_of net nid) in
  let got = ref [] in
  Atum_sim.Network.register net nid (fun ~src w -> got := (src, w) :: !got);
  ((fun () -> List.rev !got), real)

let test_group_message_acceptance () =
  let sys, _, src, dst = direct_pair ~nodes:40 () in
  let senders = System.members src and dests = System.members dst in
  let needed_src = (List.length senders / 2) + 1 and needed_dst = (List.length dests / 2) + 1 in
  Alcotest.(check bool) "senders needed > 1" true (needed_src > 1);
  let held = List.map (fun d -> (d, hold sys d)) dests in
  let fired = ref 0 in
  System.group_send sys ~src_vg:src.System.vid ~dst_vg:dst.System.vid ~label:"test"
    ~k:(fun () -> incr fired)
    ();
  System.run_for sys 5.0;
  let part d s =
    let got, _ = List.assoc d held in
    List.assoc s (got ())
  in
  let deliver d s = (snd (List.assoc d held)) ~src:s (part d s) in
  List.iter
    (fun d ->
      Alcotest.(check int) "one part per sender" (List.length senders)
        (List.length ((fst (List.assoc d held)) ())))
    dests;
  (* Repeated parts from one sender count once. *)
  List.iter (fun d -> for _ = 1 to needed_src do deliver d (List.hd senders) done) dests;
  Alcotest.(check int) "repeats from one sender do not accept" 0 !fired;
  (* One sender short of a majority, at every destination member. *)
  let first = List.filteri (fun i _ -> i < needed_src - 1) senders in
  List.iter (fun d -> List.iter (deliver d) first) dests;
  Alcotest.(check int) "no member accepted yet" 0 !fired;
  (* The deciding sender, member by member: the continuation fires
     exactly when a majority of the destination has accepted. *)
  let decider = List.nth senders (needed_src - 1) in
  List.iteri
    (fun i d ->
      deliver d decider;
      Alcotest.(check int)
        (Printf.sprintf "after %d of %d members accepted" (i + 1) (List.length dests))
        (if i + 1 >= needed_dst then 1 else 0)
        !fired)
    dests;
  (* Parts that arrive after a member accepted are no-ops. *)
  List.iter (fun d -> List.iter (deliver d) senders) dests;
  Alcotest.(check int) "fires exactly once" 1 !fired

(* A node that delivers through its own vgroup's SMR drops the gossip
   votes it collected for that broadcast. *)
let test_smr_delivery_drops_gossip_votes () =
  let sys, _, a, _ = direct_pair ~nodes:40 () in
  System.set_forward_policy sys System.flood_forward;
  let origin = List.hd (System.members a) in
  let x = List.nth (System.members a) (System.size a - 1) in
  let got, real = hold sys x in
  let bid = System.broadcast sys ~from:origin "votes" in
  System.run_for sys 10.0;
  let delivered () = Atum_util.Bitset.mem (System.node sys x).System.delivered bid in
  Alcotest.(check bool) "held member has not delivered" false (delivered ());
  let from_a (s, _) = List.mem s (System.members a) in
  let smr, gossip = List.partition from_a (got ()) in
  (* One gossip part from a neighbor vgroup: a partial vote. *)
  let s, w = List.hd gossip in
  real ~src:s w;
  Alcotest.(check bool) "partial vote recorded" true (List.mem (x, bid) (System.partial_votes sys));
  List.iter (fun (s, w) -> real ~src:s w) smr;
  Alcotest.(check bool) "delivered through SMR" true (delivered ());
  Alcotest.(check bool) "partial vote dropped" false
    (List.mem (x, bid) (System.partial_votes sys))

(* A released node id takes no gossip votes with it to the node that
   reuses it. *)
let test_release_drops_gossip_votes () =
  let sys, _, a, b = direct_pair ~nodes:40 () in
  System.set_id_recycling sys true;
  let y = System.spawn_node sys () in
  let got, _ = hold sys (List.hd (System.members b)) in
  let bid = System.broadcast sys ~from:(List.hd (System.members a)) "votes" in
  System.run_for sys 10.0;
  (* Feed the spawned node one part meant for a member of [b]. *)
  let s, w = List.find (fun (s, _) -> List.mem s (System.members a)) (got ()) in
  (Option.get (Atum_sim.Network.handler_of (System.network sys) y)) ~src:s w;
  Alcotest.(check bool) "partial vote recorded" true (List.mem (y, bid) (System.partial_votes sys));
  System.release_node sys y;
  Alcotest.(check bool) "released id holds no votes" false
    (List.exists (fun (n, _) -> n = y) (System.partial_votes sys));
  Alcotest.(check int) "id reused" y (System.spawn_node sys ())

(* ------------------------------------------------------------------ *)
(* Causal tracing: saga spans and broadcast lineage                    *)
(* ------------------------------------------------------------------ *)

let test_trace_spans_and_lineage () =
  let t = Atum.create ~params:quick_sync_params () in
  Atum_sim.Trace.set_enabled (Atum.trace t) true;
  let n0 = grow t ~target:12 ~settle:60.0 in
  Atum.run_for t 120.0;
  let bid = Atum.broadcast t ~from:n0 "traced" in
  Atum.run_for t 60.0;
  let events = Atum_sim.Trace.events (Atum.trace t) in
  let saga_of kind suffix =
    (* "saga.join.begin" -> Some "join" *)
    let plen = String.length "saga." and slen = String.length suffix in
    let klen = String.length kind in
    if
      klen > plen + slen
      && String.sub kind 0 plen = "saga."
      && String.sub kind (klen - slen) slen = suffix
    then Some (String.sub kind plen (klen - plen - slen))
    else None
  in
  let begins = Hashtbl.create 64 in
  List.iter
    (fun (ev : Atum_sim.Trace.event) ->
      match saga_of ev.Atum_sim.Trace.kind ".begin" with
      | Some saga -> Hashtbl.replace begins ev.Atum_sim.Trace.span saga
      | None -> ())
    events;
  let matched = Hashtbl.create 64 in
  List.iter
    (fun (ev : Atum_sim.Trace.event) ->
      match saga_of ev.Atum_sim.Trace.kind ".end" with
      | Some saga -> (
          match Hashtbl.find_opt begins ev.Atum_sim.Trace.span with
          | Some saga' ->
              Alcotest.(check string)
                (Printf.sprintf "span %d ends the saga it began" ev.Atum_sim.Trace.span)
                saga' saga;
              Hashtbl.replace matched saga ()
          | None -> () (* begin rotated out of the ring: fine *))
      | None -> ())
    events;
  Alcotest.(check bool) "join spans matched" true (Hashtbl.mem matched "join");
  Alcotest.(check bool) "agree spans matched" true (Hashtbl.mem matched "agree");
  (* Every gossip hop of our broadcast carries the bid, the sender
     vgroup as parent, and the H-graph cycle it travelled on. *)
  let hops =
    List.filter
      (fun (ev : Atum_sim.Trace.event) ->
        ev.Atum_sim.Trace.kind = "bcast.hop" && ev.Atum_sim.Trace.bid = bid)
      events
  in
  Alcotest.(check bool) "broadcast produced gossip hops" true (hops <> []);
  List.iter
    (fun (ev : Atum_sim.Trace.event) ->
      Alcotest.(check bool) "hop has sender vgroup" true (ev.Atum_sim.Trace.parent >= 0);
      Alcotest.(check bool) "hop has cycle" true (ev.Atum_sim.Trace.cycle >= 0))
    hops;
  Alcotest.(check bool) "broadcast.sent tagged with bid" true
    (List.exists
       (fun (ev : Atum_sim.Trace.event) ->
         ev.Atum_sim.Trace.kind = "broadcast.sent" && ev.Atum_sim.Trace.bid = bid)
       events)

(* A direct message carries its continuation.  A join sends three
   (join-contact, contact-reply, join-assign), each sent from the
   previous one's continuation: a continuation that ran twice would
   send its successor twice. *)
let join_one ?(crash_contact = false) () =
  let sys = System.create quick_sync_params in
  let contact = System.bootstrap sys () in
  let joiner = System.spawn_node sys () in
  if crash_contact then System.crash sys contact;
  let joined = ref 0 in
  System.join sys ~joiner ~contact ~k:(fun _ -> incr joined) ();
  System.run_for sys 60.0;
  (sys, contact, joined)

let test_direct_continuation_fires_once () =
  let sys, _, joined = join_one () in
  Alcotest.(check int) "three direct messages" 3
    (Atum_sim.Metrics.counter (System.metrics sys) "direct.sent");
  Alcotest.(check int) "join completed once" 1 !joined

let test_direct_to_crashed_node_never_fires () =
  let sys, contact, joined = join_one ~crash_contact:true () in
  System.recover sys contact;
  System.run_for sys 120.0;
  Alcotest.(check int) "only the first direct message was sent" 1
    (Atum_sim.Metrics.counter (System.metrics sys) "direct.sent");
  Alcotest.(check int) "join never completed" 0 !joined

(* A pinned gossip outcome.  An untraced system on the datacenter
   network, so every gossip round's arrival runs with settled columns,
   and uniform latency means no libm call decides anything.  An
   equivocating Byzantine member, a loss boost, two members crashed
   mid-run, a handler removed and a recovery drive every drop reason,
   the post-heal count and the Byzantine reaction to parts.  The
   numbers were recorded before settled columns existed: skipping
   handler calls that cannot act must not move any of them. *)
let test_gossip_outcome_golden () =
  let module Network = Atum_sim.Network in
  let sys = System.create ~net_config:(Network.datacenter_config ~seed:23) quick_sync_params in
  Alcotest.(check bool) "untraced" false (Atum_sim.Trace.enabled (System.trace sys));
  let ids = Array.of_list (System.build_direct sys ~nodes:60 ()) in
  let net = System.network sys in
  System.make_byzantine sys ~strategy:System.Equivocate ids.(20);
  let got = Array.make 60 0 in
  System.set_deliver sys (fun nid ~bid:_ ~origin:_ _ -> got.(nid) <- got.(nid) + 1);
  let broadcast tag =
    List.iter (fun i -> ignore (System.broadcast sys ~from:ids.(i) (tag ^ string_of_int i)))
  in
  broadcast "a" [ 0; 17; 42 ];
  System.run_for sys 3.0;
  Network.set_loss_boost net 0.05;
  broadcast "b" [ 8; 33; 59 ];
  System.run_for sys 0.7;
  System.crash sys ids.(5);
  System.crash sys ids.(30);
  Network.unregister net ids.(12);
  System.run_for sys 2.0;
  System.recover sys ids.(30);
  broadcast "c" [ 1; 50 ];
  System.run_for sys 10.0;
  Alcotest.(check (list int)) "sent/delivered/dropped/bytes" [ 10045; 9496; 549; 557788 ]
    [ Network.messages_sent net; Network.messages_delivered net; Network.messages_dropped net;
      Network.bytes_sent net ];
  Alcotest.(check (list (pair string int)))
    "drop reasons"
    [ ("net.drop.crash", 167); ("net.drop.partition", 0); ("net.drop.loss", 288);
      ("net.drop.no_handler", 94); ("net.deliver.post_heal", 2275); ("broadcast.delivered", 460);
      ("byzantine.equivocation", 8) ]
    (List.map
       (fun k -> (k, Atum_sim.Metrics.counter (System.metrics sys) k))
       [ "net.drop.crash"; "net.drop.partition"; "net.drop.loss"; "net.drop.no_handler";
         "net.deliver.post_heal"; "broadcast.delivered"; "byzantine.equivocation" ]);
  Alcotest.(check (list (pair string int)))
    "engine events"
    [ ("net.transit", 221); ("net.transit.batch", 351); ("rounds.tick", 31); ("system.defer", 8);
      ("system.fanout", 86) ]
    (List.map
       (fun p -> (p.Atum_sim.Engine.label, p.Atum_sim.Engine.events))
       (Atum_sim.Engine.profile (System.engine sys)));
  (* Every correct node delivers all 8 broadcasts except the two
     crashed ones and the one that lost its handler. *)
  Alcotest.(check (list int)) "per-node deliveries"
    (List.init 60 (fun i -> match i with 5 | 12 -> 3 | 20 -> 0 | 30 -> 6 | _ -> 8))
    (Array.to_list got)

(* A run's observable record for the fan-out goldens: the network
   totals, the trace's length, and a digest of its events (sender,
   destination and bytes of every admitted cell, the sender vgroup and
   cycle of every hop, in order). *)
let trace_digest sys =
  let module Network = Atum_sim.Network in
  let module Trace = Atum_sim.Trace in
  let net = System.network sys in
  let events = Trace.events (System.trace sys) in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : Trace.event) ->
      Printf.bprintf buf "%h %s %d %d %d %d %d %d;" e.Trace.time e.Trace.kind e.Trace.node
        e.Trace.peer e.Trace.size e.Trace.bid e.Trace.parent e.Trace.cycle)
    events;
  ( [ Network.messages_sent net; Network.messages_delivered net; Network.messages_dropped net;
      Network.bytes_sent net; List.length events ],
    Atum_crypto.Sha256.digest_hex (Buffer.contents buf) )

(* Gossip rounds whose targets change mid-instant.  Members of one
   vgroup that deliver a broadcast in one engine instant share one
   round; here the second member of every vgroup to deliver a
   broadcast replaces the forward policy before it gossips, dropping
   targets (flood to a coin per link) or adding them back (coin to
   flood), so rounds split and members join part by part, under three
   equivocators and a loss boost.  The run's whole trace (every
   admitted cell's sender, destination and bytes in admission order,
   and every hop's sender vgroup and cycle), every delivery and the
   network totals were recorded before rounds shared a sender list,
   and recorded again when acceptance became content-keyed: a forged
   part no longer completes a majority, so no member delivers or
   re-gossips a forged body.  Nothing else may move them. *)
let test_fanout_rounds_golden () =
  let module Network = Atum_sim.Network in
  let sys =
    System.create
      ~net_config:{ (Network.datacenter_config ~seed:41) with Network.latency = Network.Fixed 0.001 }
      ~trace_capacity:400_000 quick_sync_params
  in
  Atum_sim.Trace.set_enabled (System.trace sys) true;
  let ids = Array.of_list (System.build_direct sys ~nodes:60 ()) in
  List.iter (fun i -> System.make_byzantine sys ~strategy:System.Equivocate ids.(i)) [ 7; 23; 41 ];
  Network.set_loss_boost (System.network sys) 0.2;
  let coin ~bid ~from_vg ~cycle ~neighbor = (bid + from_vg + cycle + neighbor) land 1 = 0 in
  let first = Hashtbl.create 64 and count = Hashtbl.create 64 in
  let log = Buffer.create 4096 in
  let switches = ref 0 and mid_instant = ref 0 and forged = ref 0 in
  System.set_deliver sys (fun nid ~bid ~origin body ->
      Printf.bprintf log "%h %d %d %d %s;" (System.now sys) nid bid origin body;
      if String.contains body '/' then incr forged;
      match (System.node sys nid).System.vg with
      | None -> ()
      | Some vid ->
        let k = Option.value ~default:0 (Hashtbl.find_opt count (vid, bid)) in
        Hashtbl.replace count (vid, bid) (k + 1);
        if k = 0 then Hashtbl.replace first (vid, bid) (System.now sys)
        else if k = 1 then begin
          incr switches;
          if Float.equal (Hashtbl.find first (vid, bid)) (System.now sys) then incr mid_instant;
          System.set_forward_policy sys (if !switches land 1 = 1 then coin else System.flood_forward)
        end);
  List.iter (fun i -> ignore (System.broadcast sys ~from:ids.(i) (Printf.sprintf "m%d" i))) [ 0; 13; 30; 52 ];
  System.run_for sys 4.0;
  List.iter (fun i -> ignore (System.broadcast sys ~from:ids.(i) (Printf.sprintf "n%d" i))) [ 5; 44 ];
  System.run_for sys 10.0;
  Alcotest.(check bool) "policy replaced mid-instant" true (!mid_instant > 0);
  Alcotest.(check int) "forged deliveries" 0 !forged;
  let totals, trace = trace_digest sys in
  Alcotest.(check (list int)) "sent/delivered/dropped/bytes, trace events" [ 8190; 6507; 1683; 463722; 21548 ] totals;
  Alcotest.(check string) "trace" "df58ae4998b9fdf86e78b1dbb224dfd5d5b9f2f80ef08b22a8920d1f8a0ee44b" trace;
  Alcotest.(check string) "deliveries" "873fdfaa11518d0a3701ba16420204b6a9463ad4c8ee6016b4d961d7f06dcbae"
    (Atum_crypto.Sha256.digest_hex (Buffer.contents log))

(* A forged part does not complete a majority for the honest body.
   Vgroup [b]'s members are held until an equivocating member [z] of
   neighbor [a] has sent them its forged parts; then, in one instant,
   [b]'s first member is handed [a]'s honest parts and the second one
   honest part short of [a]'s majority plus [z]'s forged parts.  While
   votes were keyed by sender alone, [z]'s part completed the second
   member's majority and it delivered and re-gossiped the forged body;
   keyed by message, the forged parts count only toward the forged
   body.  The totals and digests were recorded with content-keyed
   acceptance. *)
let test_equivocated_body_not_delivered () =
  let module Network = Atum_sim.Network in
  let sys =
    System.create
      ~net_config:{ (Network.datacenter_config ~seed:43) with Network.latency = Network.Fixed 0.001 }
      ~trace_capacity:400_000 quick_sync_params
  in
  Atum_sim.Trace.set_enabled (System.trace sys) true;
  let ids = System.build_direct sys ~nodes:60 () in
  System.set_forward_policy sys System.flood_forward;
  let origin = List.hd ids in
  let a = System.vgroup sys (Option.get (System.node sys origin).System.vg) in
  let b =
    System.vgroup sys
      (List.find (fun v -> v <> a.System.vid) (Atum_overlay.Hgraph.neighbor_set (System.hgraph sys) a.System.vid))
  in
  let z = List.find (fun m -> m <> origin) (System.members a) in
  System.make_byzantine sys ~strategy:System.Equivocate z;
  let log = Buffer.create 4096 and forgers = Hashtbl.create 4 in
  System.set_deliver sys (fun nid ~bid ~origin body ->
      Printf.bprintf log "%h %d %d %d %s;" (System.now sys) nid bid origin body;
      if not (String.equal body "eq") then Hashtbl.replace forgers nid ());
  let held = List.map (fun m -> (m, hold sys m)) (System.members b) in
  ignore (System.broadcast sys ~from:origin "eq");
  System.run_for sys 6.0;
  let from_a m = List.filter (fun (s, _) -> List.mem s (System.members a)) ((fst (List.assoc m held)) ()) in
  let honest m = List.filter (fun (s, _) -> s <> z) (from_a m) in
  let forged m = List.filter (fun (s, _) -> s = z) (from_a m) in
  let needed = (System.size a / 2) + 1 in
  let b1 = List.nth (System.members b) 0 and b2 = List.nth (System.members b) 1 in
  Alcotest.(check bool) "forged part held" true (forged b2 <> []);
  Alcotest.(check bool) "enough honest parts" true (List.length (honest b1) >= needed);
  let feed m parts =
    let real = snd (List.assoc m held) in
    Network.register (System.network sys) m real;
    List.iter (fun (s, w) -> real ~src:s w) parts
  in
  feed b1 (honest b1);
  feed b2 (List.filteri (fun i _ -> i < needed - 1) (honest b2) @ forged b2);
  Alcotest.(check bool) "short of a majority for any body" false
    (Atum_util.Bitset.mem (System.node sys b2).System.delivered 0);
  List.iter (fun m -> if m <> b1 && m <> b2 then feed m (honest m)) (System.members b);
  System.run_for sys 6.0;
  Alcotest.(check bool) "forged body not delivered" false (Hashtbl.mem forgers b2);
  Alcotest.(check int) "no forged delivery anywhere" 0 (Hashtbl.length forgers);
  let totals, trace = trace_digest sys in
  Alcotest.(check (list int)) "sent/delivered/dropped/bytes, trace events" [ 1657; 1657; 0; 90664; 4701 ] totals;
  Alcotest.(check string) "trace" "2c3f009b8fa1d1c05dfe585c476c1ffd66d9ee4faa90c4ed56c9ec7fda95e4ea" trace;
  Alcotest.(check string) "deliveries" "dac254faa2220bb38730794e1b2cf273f6d25c8d78838e8347090efe286653f7"
    (Atum_crypto.Sha256.digest_hex (Buffer.contents log))

(* A pinned PBFT outcome: the CLI run [broadcast -n 24 -m 6 --seed 5
   -p async --byzantine 2], whose two Byzantine members drive vgroup 0
   through 175 view changes.  Traffic, engine events, each current
   replica's final view and executed-sequence length, and a digest of
   every executed request id in order were recorded before the replica
   state was rebuilt around member ranks, an indexed log and vote
   tallies; none of them may move. *)
let test_pbft_view_change_golden () =
  let module W = Atum_workload in
  let module Network = Atum_sim.Network in
  let params = { (Params.for_system_size ~protocol:Params.Async 24) with Params.seed = 5 } in
  let built = W.Builder.grow ~params ~byzantine:2 ~n:26 ~seed:5 () in
  ignore (W.Latency_exp.run built ~messages:6 ~gap:2.0 ~seed:5);
  let sys = Atum.system built.W.Builder.atum in
  let net = System.network sys in
  Alcotest.(check (list int)) "sent/delivered/dropped/bytes" [ 282161; 281885; 276; 29145323 ]
    [ Network.messages_sent net; Network.messages_delivered net; Network.messages_dropped net;
      Network.bytes_sent net ];
  Alcotest.(check (list (pair string int)))
    "engine events"
    [ ("net.transit", 279440); ("net.transit.batch", 124); ("saga.watchdog", 18);
      ("smr.timer", 1558); ("system.fanout", 62); ("telemetry.sample", 188) ]
    (List.map
       (fun p -> (p.Atum_sim.Engine.label, p.Atum_sim.Engine.events))
       (Atum_sim.Engine.profile (System.engine sys)));
  let replicas =
    List.concat_map
      (fun vid -> List.map (fun (m, r) -> (vid, m, r)) (System.async_replicas (System.vgroup sys vid)))
      (System.vgroup_ids sys)
  in
  Alcotest.(check (list (list int)))
    "vgroup, member, final view, executed"
    [ [ 0; 9; 0; 0 ]; [ 0; 13; 175; 5 ]; [ 0; 14; 175; 5 ]; [ 0; 15; 175; 6 ]; [ 0; 16; 175; 6 ];
      [ 0; 18; 175; 6 ]; [ 0; 19; 175; 6 ]; [ 0; 20; 175; 6 ]; [ 0; 21; 175; 6 ];
      [ 0; 24; 175; 6 ]; [ 0; 25; 175; 5 ]; [ 1; 0; 0; 2 ]; [ 1; 1; 0; 2 ]; [ 1; 7; 0; 2 ];
      [ 1; 10; 0; 2 ]; [ 1; 12; 0; 2 ]; [ 1; 17; 0; 2 ]; [ 1; 22; 0; 2 ]; [ 1; 23; 0; 2 ];
      [ 2; 2; 0; 0 ]; [ 2; 3; 8; 1 ]; [ 2; 4; 8; 1 ]; [ 2; 5; 8; 1 ]; [ 2; 6; 8; 1 ];
      [ 2; 8; 8; 1 ]; [ 2; 11; 8; 1 ] ]
    (List.map
       (fun (vid, m, r) ->
         [ vid; m; Atum_smr.Pbft.view r; List.length (Atum_smr.Pbft.executed_rids r) ])
       replicas);
  Alcotest.(check string) "executed request ids, in order"
    "6bffed2724da080f968e599cc19d76a0df2b476feca10c082ff3ba8ba49b51a8"
    (Atum_crypto.Sha256.digest_hex
       (String.concat ""
          (List.map
             (fun (vid, m, r) ->
               Printf.sprintf "%d/%d:%s;" vid m
                 (String.concat "," (Atum_smr.Pbft.executed_rids r)))
             replicas)))

(* ------------------------------------------------------------------ *)
(* The agreement operation codec                                       *)
(* ------------------------------------------------------------------ *)

module Agreement = Atum_core.Agreement

(* Short strings over an alphabet dense in separators and digits, so
   generated inputs hit the codec's edge cases (empty fields, '#' in a
   body, signs and leading zeros). *)
let codec_string = QCheck.Gen.(string_size ~gen:(oneofl [ '#'; '0'; '1'; '7'; '-'; 'a'; 'x' ]) (0 -- 8))

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun id label -> Agreement.Control { id; label }) int codec_string;
        map3
          (fun bid origin body -> Agreement.Bcast { bid; origin; body })
          int int codec_string;
      ])

let prop_op_roundtrip =
  QCheck.Test.make ~name:"decode_op inverts encode_op" ~count:1000
    (QCheck.make ~print:Agreement.encode_op op_gen)
    (fun op -> Agreement.decode_op (Agreement.encode_op op) = Some op)

(* Anything [decode_op] accepts is the encoding of what it returns, so
   every string that is not one of the two shapes decodes to [None]. *)
let prop_decode_total =
  let near_miss =
    QCheck.Gen.(
      map2 (fun tag rest -> tag ^ rest) (oneofl [ "op#"; "bcast#"; "op"; "Op#"; "" ]) codec_string)
  in
  QCheck.Test.make ~name:"decode_op accepts only encodings" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") QCheck.Gen.(oneof [ near_miss; string ]))
    (fun s ->
      match Agreement.decode_op s with
      | None -> true
      | Some op -> String.equal (Agreement.encode_op op) s)

let test_op_codec_examples () =
  let decodes s = Agreement.decode_op s <> None in
  Alcotest.(check string) "control bytes" "op#3#join:7"
    (Agreement.encode_op (Agreement.Control { id = 3; label = "join:7" }));
  Alcotest.(check string) "bcast bytes" "bcast#4#9#a#b"
    (Agreement.encode_op (Agreement.Bcast { bid = 4; origin = 9; body = "a#b" }));
  Alcotest.(check bool) "empty body" true
    (Agreement.decode_op "bcast#1#2#" = Some (Agreement.Bcast { bid = 1; origin = 2; body = "" }));
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S rejected" s) false (decodes s))
    [ ""; "op"; "op#5"; "op#05#x"; "op#+5#x"; "op#x#y"; "bcast#1#2"; "bcast#1#0x2#b"; "nop#1#x" ]

(* ------------------------------------------------------------------ *)
(* Vote tallies and content-keyed acceptance                           *)
(* ------------------------------------------------------------------ *)

(* One broadcast's parts at one member, under two rosters of the source
   vgroup: [a]'s members gossip under its roster, then [a] gains member
   [y] (a new roster) and [y] gossips under that one.  The tally counts
   the old roster's senders by rank and [y], outside it, by id; a
   repeated part counts once whichever roster it names. *)
let test_tally_across_roster_change () =
  let sys, _, a, b = direct_pair ~nodes:40 () in
  System.set_forward_policy sys System.flood_forward;
  let senders = System.members a in
  let x = List.hd (System.members b) in
  let got, real = hold sys x in
  let bid = System.broadcast sys ~from:(List.hd senders) "rosters" in
  System.run_for sys 10.0;
  let from_a = List.filter (fun (s, _) -> List.mem s senders) (got ()) in
  Alcotest.(check int) "one part per sender of [a]" (List.length senders) (List.length from_a);
  (* [y] joins [a] and accepts the broadcast from [a]'s parts. *)
  let y = System.spawn_node sys () in
  System.set_members sys a (senders @ [ y ]);
  (System.node sys y).System.vg <- Some a.System.vid;
  let y_handler = Option.get (Atum_sim.Network.handler_of (System.network sys) y) in
  List.iter (fun (s, w) -> y_handler ~src:s w) from_a;
  System.run_for sys 1.0;
  let y_part = List.assoc y (got ()) in
  let needed = (List.length senders / 2) + 1 in
  Alcotest.(check bool) "old roster opens the tally" true (needed > 2);
  let delivered () = Atum_util.Bitset.mem (System.node sys x).System.delivered bid in
  let short = List.filteri (fun i _ -> i < needed - 2) from_a in
  List.iter (fun (s, w) -> real ~src:s w) short;
  real ~src:y y_part;
  real ~src:y y_part;
  List.iter (fun (s, w) -> real ~src:s w) short;
  Alcotest.(check bool) "one sender short: not delivered" false (delivered ());
  Alcotest.(check bool) "partial vote held" true (List.mem (x, bid) (System.partial_votes sys));
  let s, w = List.nth from_a (needed - 2) in
  real ~src:s w;
  Alcotest.(check bool) "majority reached: delivered" true (delivered ())

(* A replica that reports one execution twice counts once toward the
   agreement's majority. *)
let test_execution_counted_once () =
  let sys = System.create quick_sync_params in
  let ids = System.build_direct sys ~nodes:12 () in
  let vg = System.vgroup sys (Option.get (System.node sys (List.hd ids)).System.vg) in
  let fired = ref 0 in
  System.agree sys vg "once" (fun () -> incr fired);
  let op =
    { Atum_smr.Smr_intf.origin = List.hd ids;
      payload = Agreement.encode_op (Agreement.Control { id = 0; label = "once" }) }
  in
  let members = System.members vg in
  let needed = (System.size vg / 2) + 1 in
  Alcotest.(check bool) "majority above one" true (needed > 1);
  let exec m = System.on_execute sys vg m op in
  List.iteri (fun i m -> if i < needed - 1 then (exec m; exec m)) members;
  Alcotest.(check int) "one short of a majority" 0 !fired;
  exec (List.nth members (needed - 1));
  Alcotest.(check int) "majority fires" 1 !fired

(* ROADMAP item 9's probe, reduced: 120 nodes with 12 equivocators, a
   loss boost that removes honest parts, flooding, five broadcasts.
   While votes were keyed by sender alone, forged parts completed
   majorities in every one of these runs (14-248 forged deliveries
   each); keyed by message, none may. *)
let forged_under_loss ~params ~loss ~seed =
  let module Network = Atum_sim.Network in
  let sys =
    System.create ~net_config:(Network.datacenter_config ~seed) { params with Params.seed }
  in
  let ids = Array.of_list (System.build_direct sys ~nodes:120 ()) in
  System.set_forward_policy sys System.flood_forward;
  Array.iteri
    (fun i id -> if i mod 10 = 5 then System.make_byzantine sys ~strategy:System.Equivocate id)
    ids;
  let mon = Monitor.attach sys in
  let sent = Hashtbl.create 8 and delivered = ref 0 and forged = ref 0 in
  System.set_deliver sys (fun _ ~bid ~origin:_ body ->
      incr delivered;
      if not (String.equal (Hashtbl.find sent bid) body) then incr forged);
  Network.set_loss_boost (System.network sys) loss;
  List.iteri
    (fun k i ->
      let body = Printf.sprintf "probe-%d" k in
      Hashtbl.replace sent (System.broadcast sys ~from:ids.(i) body) body)
    [ 0; 21; 42; 63; 84 ];
  System.run_for sys 60.0;
  (!delivered, !forged, List.assoc_opt "forged_delivery" (Monitor.violations mon))

let test_no_forged_delivery_under_loss () =
  List.iter
    (fun (name, params, loss) ->
      List.iter
        (fun seed ->
          let delivered, forged, flagged = forged_under_loss ~params ~loss ~seed in
          let run = Printf.sprintf "%s loss %.1f seed %d" name loss seed in
          Alcotest.(check bool) (run ^ ": delivers") true (delivered > 0);
          Alcotest.(check int) (run ^ ": forged deliveries") 0 forged;
          Alcotest.(check (option int)) (run ^ ": monitor") None flagged)
        [ 1; 2 ])
    [ ("async", quick_async_params, 0.2); ("sync", quick_sync_params, 0.4) ]

(* Past the fault bound the rule cannot hold: a Byzantine majority of
   equivocators in [a] all forge the same body per cycle, so together
   they vouch for it, and the monitor flags the member that accepts. *)
let test_monitor_forged_delivery () =
  let sys, ids, a, b = direct_pair ~params:quick_sync_params ~nodes:60 () in
  System.set_forward_policy sys System.flood_forward;
  let mon = Monitor.attach sys in
  let byz = List.filteri (fun i _ -> i <= System.size a / 2) (System.members a) in
  List.iter (System.make_byzantine sys ~strategy:System.Equivocate) byz;
  let x = List.hd (System.members b) in
  let got, real = hold sys x in
  let origin =
    List.find
      (fun m -> not (List.mem m (System.members a) || List.mem m (System.members b)))
      ids
  in
  ignore (System.broadcast sys ~from:origin "genuine");
  System.run_for sys 10.0;
  List.iter (fun (s, w) -> if List.mem s byz then real ~src:s w) (got ());
  Alcotest.(check (option int)) "forged_delivery flagged" (Some 1)
    (List.assoc_opt "forged_delivery" (Monitor.violations mon))

let () =
  Alcotest.run "core"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "bootstrap" `Quick test_bootstrap;
          Alcotest.test_case "double bootstrap" `Quick test_bootstrap_twice_rejected;
          Alcotest.test_case "self broadcast" `Quick test_self_broadcast;
          Alcotest.test_case "single join" `Quick test_single_join;
          Alcotest.test_case "grow sync" `Slow test_grow_sync;
          Alcotest.test_case "grow async" `Slow test_grow_async;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "reaches all (sync)" `Slow test_broadcast_reaches_all_sync;
          Alcotest.test_case "reaches all (async)" `Slow test_broadcast_reaches_all_async;
          Alcotest.test_case "dedup" `Slow test_broadcast_multiple_messages_dedup;
          Alcotest.test_case "single-cycle forward" `Slow test_forward_single_cycle_still_delivers;
          Alcotest.test_case "forward decided once per vgroup" `Slow
            test_forward_decided_once_per_vgroup;
          Alcotest.test_case "latency bounded" `Slow test_broadcast_latency_bounded_sync;
          Alcotest.test_case "broadcast storm" `Slow test_broadcast_storm;
          Alcotest.test_case "agreement survives reconfiguration" `Slow
            test_agreement_survives_reconfiguration;
        ] );
      ( "membership",
        [
          Alcotest.test_case "leave" `Slow test_leave;
          Alcotest.test_case "mass leave merges" `Slow test_mass_leave_merges;
          Alcotest.test_case "crash eviction" `Slow test_crash_eviction;
          Alcotest.test_case "partition tolerance" `Slow test_partitioned_minority_does_not_block;
          Alcotest.test_case "crash eviction (async)" `Slow test_crash_eviction_async;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "minority tolerated" `Slow test_byzantine_minority_broadcast_still_works;
          Alcotest.test_case "not evicted" `Slow test_byzantine_not_evicted;
          Alcotest.test_case "no forged delivery under loss" `Quick
            test_no_forged_delivery_under_loss;
        ] );
      ( "churn",
        [
          Alcotest.test_case "exchange metrics" `Slow test_exchange_metrics_recorded;
          QCheck_alcotest.to_alcotest prop_churn_preserves_invariants;
        ] );
      ( "walks",
        [
          Alcotest.test_case "walks select live vgroups" `Slow test_walk_selects_live_vgroups;
          Alcotest.test_case "walks spread" `Slow test_walk_spreads_over_vgroups;
          Alcotest.test_case "async walk certificates" `Slow test_async_walk_certificates_verified;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "oversized splits" `Slow test_oversized_vgroups_eventually_split;
          Alcotest.test_case "byzantine join" `Slow test_byzantine_join;
          Alcotest.test_case "nonmember broadcast" `Quick test_broadcast_from_nonmember_rejected;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean run" `Slow test_monitor_clean_run;
          Alcotest.test_case "forced faults flagged" `Slow test_monitor_flags_forced_faults;
          Alcotest.test_case "duplicate delivery flagged" `Slow test_monitor_dup_delivery;
          Alcotest.test_case "forged delivery flagged" `Quick test_monitor_forged_delivery;
        ] );
      ( "group-msg",
        [
          Alcotest.test_case "acceptance" `Quick test_group_message_acceptance;
          Alcotest.test_case "SMR delivery drops gossip votes" `Quick
            test_smr_delivery_drops_gossip_votes;
          Alcotest.test_case "release drops gossip votes" `Quick test_release_drops_gossip_votes;
          Alcotest.test_case "direct continuation fires once" `Quick
            test_direct_continuation_fires_once;
          Alcotest.test_case "direct to crashed node never fires" `Quick
            test_direct_to_crashed_node_never_fires;
          Alcotest.test_case "gossip outcome golden" `Quick test_gossip_outcome_golden;
          Alcotest.test_case "fan-out rounds golden" `Quick test_fanout_rounds_golden;
          Alcotest.test_case "equivocated body not delivered" `Quick
            test_equivocated_body_not_delivered;
          Alcotest.test_case "tally across a roster change" `Quick
            test_tally_across_roster_change;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "op codec examples" `Quick test_op_codec_examples;
          QCheck_alcotest.to_alcotest prop_op_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_total;
          Alcotest.test_case "pbft view-change golden" `Quick test_pbft_view_change_golden;
          Alcotest.test_case "execution counted once" `Quick test_execution_counted_once;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "saga spans + broadcast lineage" `Slow
            test_trace_spans_and_lineage;
        ] );
    ]
