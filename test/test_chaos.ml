(* The chaos layer: scripted fault injection (Atum_sim.Fault), active
   Byzantine adversaries (System.byz_strategy), and recovery
   verification (Atum_workload.Resilience).

   The common shape: violations and delivery dips are EXPECTED while a
   fault is active — what these tests assert is that the monitor sees
   them while they last, that they stop accruing once the network
   heals, and that the whole pipeline stays deterministic. *)

module Atum = Atum_core.Atum
module System = Atum_core.System
module Monitor = Atum_core.Monitor
module Fault = Atum_sim.Fault
module Network = Atum_sim.Network
module Metrics = Atum_sim.Metrics
module Json = Atum_util.Json
module W = Atum_workload

let counter atum name = Metrics.counter (Atum.metrics atum) name

(* A settled deployment, no monitor (tests attach their own). *)
let build ?(n = 24) ?(seed = 11) ?(trace = false) () =
  W.Builder.grow ~trace ~n ~seed ()

(* ------------------------------------------------------------------ *)
(* Monitor under partition                                             *)
(* ------------------------------------------------------------------ *)

let test_monitor_sees_partition () =
  let built = build () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  let net = System.network sys in
  let mon = Monitor.attach sys in
  Alcotest.(check int) "clean before the fault" 0 (Monitor.sweep mon);
  (* Split one vgroup's replicas across the partition boundary. *)
  let vid = List.hd (System.vgroup_ids sys) in
  let vg = System.vgroup sys vid in
  (match System.members vg with
  | m :: _ -> Network.set_partition net m 1
  | [] -> Alcotest.fail "empty vgroup");
  Alcotest.(check bool) "vg_partitioned during the fault" true (Monitor.sweep mon > 0);
  Alcotest.(check bool) "violation kind recorded" true
    (List.mem_assoc "vg_partitioned" (Monitor.violations mon));
  Network.heal net;
  Alcotest.(check int) "clean after heal" 0 (Monitor.sweep mon)

let test_monitor_sees_crash () =
  let built = build () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  let mon = Monitor.attach sys in
  let victim =
    match W.Builder.correct_members built with
    | m :: _ when m <> built.W.Builder.first -> m
    | _ :: m :: _ -> m
    | _ -> Alcotest.fail "no victim available"
  in
  System.crash sys victim;
  Alcotest.(check bool) "vg_crashed during the fault" true (Monitor.sweep mon > 0);
  Alcotest.(check bool) "violation kind recorded" true
    (List.mem_assoc "vg_crashed" (Monitor.violations mon));
  System.recover sys victim;
  Alcotest.(check int) "clean after recover" 0 (Monitor.sweep mon);
  Alcotest.(check int) "recovery counted" 1 (counter atum "node.recovered")

(* ------------------------------------------------------------------ *)
(* Crash / recover delivery accounting                                 *)
(* ------------------------------------------------------------------ *)

let test_crash_recover_delivery () =
  let built = build () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  Atum.on_forward atum System.flood_forward;
  let victim =
    match List.filter (fun m -> m <> built.W.Builder.first) (W.Builder.correct_members built) with
    | m :: _ -> m
    | [] -> Alcotest.fail "no victim available"
  in
  System.crash sys victim;
  (match W.Builder.correct_members built with
  | from :: _ -> ignore (Atum.broadcast atum ~from "during-crash")
  | [] -> ());
  Atum.run_for atum 60.0;
  Alcotest.(check bool) "traffic to the crashed node dropped" true
    (counter atum "net.drop.crash" > 0);
  Alcotest.(check int) "nothing post-heal yet" 0 (counter atum "net.deliver.post_heal");
  System.recover sys victim;
  (match W.Builder.correct_members built with
  | from :: _ -> ignore (Atum.broadcast atum ~from "after-recover")
  | [] -> ());
  Atum.run_for atum 60.0;
  Alcotest.(check bool) "post-heal deliveries counted" true
    (counter atum "net.deliver.post_heal" > 0)

(* ------------------------------------------------------------------ *)
(* Fault schedules                                                     *)
(* ------------------------------------------------------------------ *)

let test_fault_schedule_validation () =
  let bad schedule =
    try
      Fault.validate schedule;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty partition group" true
    (bad [ { Fault.after = 0.0; step = Fault.Partition [ [] ] } ]);
  Alcotest.(check bool) "empty crash list" true
    (bad [ { Fault.after = 0.0; step = Fault.Crash [] } ]);
  Alcotest.(check bool) "loss p out of range" true
    (bad [ { Fault.after = 0.0; step = Fault.Loss_burst { p = 1.5; duration = 1.0 } } ]);
  Alcotest.(check bool) "non-positive duration" true
    (bad [ { Fault.after = 0.0; step = Fault.Latency_spike { factor = 2.0; duration = 0.0 } } ]);
  Alcotest.(check bool) "negative offset" true
    (bad [ { Fault.after = -1.0; step = Fault.Heal } ]);
  Alcotest.(check bool) "empty restart list" true
    (bad [ { Fault.after = 0.0; step = Fault.Restart { nodes = []; down = 5.0 } } ]);
  Alcotest.(check bool) "non-positive restart down" true
    (bad [ { Fault.after = 0.0; step = Fault.Restart { nodes = [ 1 ]; down = 0.0 } } ]);
  (* The ordering bug this validate pass fixes: inverse steps with
     nothing to undo used to pass silently and then do nothing. *)
  Alcotest.(check bool) "recover with no preceding crash" true
    (bad [ { Fault.after = 1.0; step = Fault.Recover [ 3 ] } ]);
  Alcotest.(check bool) "heal with no preceding partition" true
    (bad [ { Fault.after = 1.0; step = Fault.Heal } ]);
  Alcotest.(check bool) "recover precedes its crash in time" true
    (bad
       [
         { Fault.after = 5.0; step = Fault.Recover [ 3 ] };
         { Fault.after = 9.0; step = Fault.Crash [ 3 ] };
       ]);
  (* Restart auto-revives its nodes, so it does not license a Recover. *)
  Alcotest.(check bool) "recover of a restart victim" true
    (bad
       [
         { Fault.after = 1.0; step = Fault.Restart { nodes = [ 3 ]; down = 2.0 } };
         { Fault.after = 9.0; step = Fault.Recover [ 3 ] };
       ]);
  let ok =
    [
      { Fault.after = 1.0; step = Fault.Partition [ [ 1; 2 ] ] };
      { Fault.after = 2.0; step = Fault.Loss_burst { p = 0.5; duration = 10.0 } };
      { Fault.after = 3.0; step = Fault.Crash [ 3 ] };
      { Fault.after = 5.0; step = Fault.Heal };
      { Fault.after = 6.0; step = Fault.Recover [ 3 ] };
    ]
  in
  Fault.validate ok;
  Alcotest.(check (float 1e-9)) "span covers burst tails" 12.0 (Fault.span ok);
  Alcotest.(check (list (float 1e-9))) "heal offsets" [ 5.0; 6.0 ] (Fault.heal_offsets ok);
  let restart = [ { Fault.after = 4.0; step = Fault.Restart { nodes = [ 7 ]; down = 6.0 } } ] in
  Fault.validate restart;
  Alcotest.(check (float 1e-9)) "span covers restart down time" 10.0 (Fault.span restart);
  Alcotest.(check (list (float 1e-9)))
    "restart up time is a heal offset" [ 10.0 ] (Fault.heal_offsets restart)

let test_fault_schedule_execution () =
  let built = build () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  let net = System.network sys in
  let victim =
    match List.filter (fun m -> m <> built.W.Builder.first) (W.Builder.correct_members built) with
    | m :: _ -> m
    | [] -> Alcotest.fail "no victim available"
  in
  let schedule =
    [
      { Fault.after = 5.0; step = Fault.Loss_burst { p = 0.4; duration = 20.0 } };
      { Fault.after = 10.0; step = Fault.Crash [ victim ] };
      { Fault.after = 30.0; step = Fault.Latency_spike { factor = 4.0; duration = 15.0 } };
      { Fault.after = 40.0; step = Fault.Recover [ victim ] };
    ]
  in
  let fq =
    Fault.install ~on_crash:(System.crash sys) ~on_recover:(System.recover sys) net schedule
  in
  Alcotest.(check int) "nothing applied yet" 0 (Fault.applied fq);
  Atum.run_for atum 12.0;
  Alcotest.(check int) "burst + crash applied" 2 (Fault.applied fq);
  Alcotest.(check (float 1e-9)) "loss boost in force" 0.4 (Network.loss_boost net);
  Alcotest.(check bool) "victim crashed" true (Network.is_crashed net victim);
  Alcotest.(check int) "two faults active" 2 (Fault.active fq);
  Atum.run_for atum 20.0;
  Alcotest.(check (float 1e-9)) "burst expired" 0.0 (Network.loss_boost net);
  Alcotest.(check (float 1e-9)) "latency spike in force" 4.0 (Network.latency_factor net);
  Atum.run_for atum 20.0;
  Alcotest.(check int) "all steps applied" 4 (Fault.applied fq);
  Alcotest.(check int) "nothing active at the end" 0 (Fault.active fq);
  Alcotest.(check (float 1e-9)) "latency back to identity" 1.0 (Network.latency_factor net);
  Alcotest.(check bool) "victim recovered" false (Network.is_crashed net victim);
  List.iter
    (fun k -> Alcotest.(check int) k 1 (counter atum k))
    [ "fault.loss_burst"; "fault.loss_burst.end"; "fault.crash"; "fault.latency_spike";
      "fault.latency_spike.end"; "fault.recover" ]

(* ------------------------------------------------------------------ *)
(* Active adversaries                                                  *)
(* ------------------------------------------------------------------ *)

let test_equivocation_detected () =
  let built = build ~trace:true () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  Atum.on_forward atum System.flood_forward;
  (* Flip a correct member in some vgroup other than the publisher's:
     equivocation triggers on the gossip (Group_part) path. *)
  let from = List.hd (W.Builder.correct_members built) in
  let from_vg = Atum.vgroup_of atum from in
  let liar =
    match
      List.filter
        (fun m -> m <> from && Atum.vgroup_of atum m <> from_vg)
        (W.Builder.correct_members built)
    with
    | m :: _ -> m
    | [] -> Alcotest.fail "needs at least two vgroups"
  in
  System.make_byzantine sys ~strategy:System.Equivocate liar;
  for i = 1 to 5 do
    ignore (Atum.broadcast atum ~from (Printf.sprintf "m%d" i));
    Atum.run_for atum 30.0
  done;
  Alcotest.(check bool) "equivocations counted" true
    (counter atum "byzantine.equivocation" > 0);
  let r = W.Analyze.of_trace (Atum.trace atum) ~metrics:(Atum.metrics atum) in
  Alcotest.(check bool) "analyzer surfaces the adversary" true
    (List.mem_assoc "byzantine.equivocate" r.W.Analyze.byzantine_events)

let test_target_vgroup_hunts () =
  let built = build ~n:30 ~seed:5 () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  let target = List.hd (System.vgroup_ids sys) in
  let nid = System.spawn_node sys () in
  System.make_byzantine sys
    ~strategy:(System.Target_vgroup { vg = target; inner = System.Mute })
    nid;
  Alcotest.(check int) "strategy counted" 1
    (counter atum "byzantine.strategy.target_vgroup");
  Atum.run_for atum 900.0;
  let attempts = counter atum "byzantine.target.attempt" in
  let landed = counter atum "byzantine.target.landed" in
  Alcotest.(check bool)
    (Printf.sprintf "hunting observable (attempts=%d landed=%d)" attempts landed)
    true
    (attempts + landed > 0)

let test_selective_drop_counts () =
  let built = build ~trace:true () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  Atum.on_forward atum System.flood_forward;
  let from = List.hd (W.Builder.correct_members built) in
  let from_vg = Atum.vgroup_of atum from in
  let dropper =
    match
      List.filter
        (fun m -> m <> from && Atum.vgroup_of atum m <> from_vg)
        (W.Builder.correct_members built)
    with
    | m :: _ -> m
    | [] -> Alcotest.fail "needs at least two vgroups"
  in
  System.make_byzantine sys ~strategy:(System.Selective_drop 0.5) dropper;
  for i = 1 to 10 do
    ignore (Atum.broadcast atum ~from (Printf.sprintf "m%d" i));
    Atum.run_for atum 30.0
  done;
  (* Every bid is either dropped or faithfully relayed — both observable. *)
  Alcotest.(check bool) "dropped or relayed" true
    (counter atum "byzantine.selective_drop" + counter atum "byzantine.relay" > 0)

(* ------------------------------------------------------------------ *)
(* Churn probe thresholds (satellite)                                  *)
(* ------------------------------------------------------------------ *)

let test_churn_thresholds () =
  let built = build () in
  let loose =
    W.Churn.probe built ~sustain_completion:0.0 ~sustain_drift:1.0 ~rate_per_min:6.0
      ~duration:60.0 ~seed:3
  in
  Alcotest.(check bool) "loose thresholds always sustain" true loose.W.Churn.sustained;
  Alcotest.check_raises "completion outside [0, 1]"
    (Invalid_argument "Churn.probe: sustain_completion outside [0, 1]") (fun () ->
      ignore
        (W.Churn.probe built ~sustain_completion:1.5 ~rate_per_min:6.0 ~duration:10.0 ~seed:3));
  Alcotest.check_raises "negative drift"
    (Invalid_argument "Churn.probe: negative sustain_drift") (fun () ->
      ignore
        (W.Churn.probe built ~sustain_drift:(-0.1) ~rate_per_min:6.0 ~duration:10.0 ~seed:3))

(* ------------------------------------------------------------------ *)
(* Recovery verification end to end                                    *)
(* ------------------------------------------------------------------ *)

let resilience_run seed =
  let built = W.Builder.grow ~trace:true ~n:24 ~seed () in
  let r =
    W.Resilience.run ~messages_per_phase:4 ~attackers:1 ~drain:120.0 built ~seed ()
  in
  (r, Json.to_string (Atum_sim.Artifact.(encode resilience) r))

let test_resilience_recovers () =
  let r, _ = resilience_run 11 in
  Alcotest.(check int) "three phases" 3 (List.length r.phases);
  Alcotest.(check bool) "all scheduled faults applied" true
    (r.faults_applied = List.length r.schedule && r.faults_applied > 0);
  Alcotest.(check bool) "one heal record per heal step" true (List.length r.heals >= 1);
  Alcotest.(check bool) "violations observed during the faults" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.violations_during > 0);
  Alcotest.(check string) "consistency restored" "ok" r.consistency;
  Alcotest.(check bool) "converged" true r.converged;
  (match r.phases with
  | [ before; _; _ ] ->
    Alcotest.(check bool) "healthy baseline delivers" true (before.success > 0.99)
  | _ -> Alcotest.fail "expected before/during/after")

let test_resilience_deterministic () =
  let _, a = resilience_run 11 in
  let _, b = resilience_run 11 in
  Alcotest.(check bool) "same-seed results byte-identical" true (String.equal a b);
  let _, c = resilience_run 12 in
  Alcotest.(check bool) "different seed diverges" false (String.equal a c)

(* A node whose corrupt store falls back to a fresh join re-delivers,
   through catch-up, broadcasts it had already delivered; the phase
   accounting counts each (node, broadcast) pair once, so no phase
   reports more deliveries than it expected.  This is the CLI's
   [chaos -n 60 --seed 7 --corrupt-log] run, whose "before" phase
   once reported 630/620. *)
let test_corrupt_log_success_bounded () =
  let params = { (Atum_core.Params.for_system_size ~protocol:Atum_core.Params.Sync 60) with seed = 7 } in
  let built = W.Builder.grow ~params ~monitor:false ~n:60 ~seed:7 () in
  let r = W.Resilience.run ~attackers:3 ~restart:true ~corrupt_log:true built ~seed:7 () in
  Alcotest.(check bool) "the store fell back to a fresh join" true
    (List.exists (fun (rr : Atum_sim.Artifact.restart) -> rr.fallback) r.restarts);
  List.iter
    (fun (p : Atum_sim.Artifact.phase_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d/%d deliveries" p.phase p.delivered p.expected)
        true
        (p.success <= 1.0 && p.delivered <= p.expected))
    r.phases

let () =
  Alcotest.run "chaos"
    [
      ( "monitor",
        [
          Alcotest.test_case "partition violations clear on heal" `Quick
            test_monitor_sees_partition;
          Alcotest.test_case "crash violations clear on recover" `Quick
            test_monitor_sees_crash;
        ] );
      ( "fault",
        [
          Alcotest.test_case "schedule validation" `Quick test_fault_schedule_validation;
          Alcotest.test_case "schedule execution" `Quick test_fault_schedule_execution;
          Alcotest.test_case "crash/recover delivery accounting" `Quick
            test_crash_recover_delivery;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "equivocation detected" `Quick test_equivocation_detected;
          Alcotest.test_case "target vgroup hunts" `Quick test_target_vgroup_hunts;
          Alcotest.test_case "selective drop counts" `Quick test_selective_drop_counts;
        ] );
      ( "churn",
        [ Alcotest.test_case "probe thresholds" `Quick test_churn_thresholds ] );
      ( "resilience",
        [
          Alcotest.test_case "recovers after the schedule" `Slow test_resilience_recovers;
          Alcotest.test_case "same-seed byte-identical" `Slow test_resilience_deterministic;
          Alcotest.test_case "corrupt-log success at most 1" `Quick
            test_corrupt_log_success_bounded;
        ] );
    ]
