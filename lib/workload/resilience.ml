(* Recovery verification under scripted chaos.

   Runs a Fault schedule (and optionally a squad of targeted
   equivocating attackers) against a grown deployment while a steady
   broadcast workload measures delivery success, then verifies that
   the system actually *recovers*: after each heal step the
   convergence checker polls [System.check_consistency] plus a fresh
   [Monitor] sweep until both come back clean, and records the
   time-to-heal.  Violations are expected — and counted, per phase —
   while faults are active; what the experiment asserts is that they
   stop accruing once the network heals.

   Everything is driven by the simulation clock and the seeded RNG, so
   the same seed and schedule produce byte-identical artifacts. *)

module Atum = Atum_core.Atum
module System = Atum_core.System
module Monitor = Atum_core.Monitor
module Fault = Atum_sim.Fault
module A = Atum_sim.Artifact
module Metrics = Atum_sim.Metrics
module Stats = Atum_util.Stats
module Rng = Atum_util.Rng

type result = A.resilience

let largest_vgroup sys =
  List.fold_left
    (fun acc vid ->
      match System.vgroup_opt sys vid with
      | Some vg when not vg.System.retired ->
        let size = List.length vg.System.members in
        (match acc with
        | Some (_, best) when best >= size -> acc
        | _ -> Some (vid, size))
      | _ -> acc)
    None (System.vgroup_ids sys)

(* The acceptance scenario: partition half the largest vgroup's
   replicas away, crash one correct member in each of two other
   vgroups, then heal and recover.  Built against the live registry so
   the node ids are real; fully determined by the deployment state. *)
let default_schedule (built : Builder.built) =
  let sys = Atum.system built.Builder.atum in
  let target = largest_vgroup sys in
  let half =
    match target with
    | Some (vid, _) ->
      let vg = System.vgroup sys vid in
      let keep = max 1 (List.length vg.System.members / 2) in
      List.filteri (fun i _ -> i < keep) vg.System.members
    | None -> []
  in
  let victims =
    let target_vid = match target with Some (vid, _) -> vid | None -> -1 in
    let rec pick acc = function
      | [] -> List.rev acc
      | vid :: rest ->
        if List.length acc >= 2 then List.rev acc
        else if vid = target_vid then pick acc rest
        else (
          match System.vgroup_opt sys vid with
          | Some vg when not vg.System.retired -> (
            match System.correct_members sys vg with
            | m :: _ when m <> built.Builder.first -> pick (m :: acc) rest
            | _ -> pick acc rest)
          | _ -> pick acc rest)
    in
    pick [] (System.vgroup_ids sys)
  in
  List.concat
    [
      (if half = [] then []
       else [ { Fault.after = 10.0; step = Fault.Partition [ half ] } ]);
      (if victims = [] then [] else [ { Fault.after = 30.0; step = Fault.Crash victims } ]);
      (if half = [] then [] else [ { Fault.after = 150.0; step = Fault.Heal } ]);
      (if victims = [] then []
       else [ { Fault.after = 170.0; step = Fault.Recover victims } ]);
    ]

(* The durability acceptance scenario: same partition as
   [default_schedule], but the two victims are cold-*restarted* rather
   than crashed-and-recovered — down through the heal, back up at the
   same t+170s via [System.restart], which replays their durable store
   and catches them up.  Victim selection is identical, so the two
   scenarios stress the same replicas. *)
let default_restart_schedule (built : Builder.built) =
  List.concat_map
    (fun (e : Fault.entry) ->
      match e.Fault.step with
      | Fault.Crash victims -> [ { e with Fault.step = Fault.Restart { nodes = victims; down = 140.0 } } ]
      | Fault.Recover _ -> []
      | _ -> [ e ])
    (default_schedule built)

(* New violations in [later] relative to the earlier snapshot (both
   are cumulative per-kind counts, sorted by kind). *)
let diff_violations later earlier =
  List.filter_map
    (fun (k, n) ->
      let prev = Option.value ~default:0 (List.assoc_opt k earlier) in
      if n > prev then Some (k, n - prev) else None)
    later

let run ?(messages_per_phase = 10) ?(gap = 5.0) ?(attackers = 0) ?schedule
    ?(heal_timeout = 600.0) ?(drain = 180.0) ?flight_dir ?(restart = false)
    ?(corrupt_log = false) (built : Builder.built) ~seed () : result =
  let atum = built.Builder.atum in
  let sys = Atum.system atum in
  let rng = Rng.create (seed + 77) in
  (* Restart mode: an in-sim durable store (WAL + snapshots on a VFS
     stamped with simulation time) so cold restarts have something to
     recover from. *)
  let vfs =
    if restart || corrupt_log then begin
      let vfs = Atum_store.Vfs.create ~now:(fun () -> Atum.now atum) () in
      ignore (System.attach_store sys (Atum_store.Vfs.backend vfs));
      Some vfs
    end
    else None
  in
  (* Latency-insensitive but delivery-critical: gossip on every cycle
     so a delivery miss means a fault, not an unlucky coin. *)
  Atum.on_forward atum System.flood_forward;
  (* The flight recorder: reuse the one Builder.grow armed, else create
     one here when a dump directory asks for it.  Violations during
     faults are expected, so the first of them is exactly the evidence
     a postmortem should pin down. *)
  let flight =
    match (built.Builder.flight, flight_dir) with
    | (Some _ as fl), _ -> fl
    | None, Some dir ->
      Some
        (Atum_sim.Flight.create ~dir ~engine:(Atum.engine atum)
           ~trace:(Atum.trace atum) ~metrics:(Atum.metrics atum) ())
    | None, None -> None
  in
  (match (flight, Atum.telemetry atum) with
  | Some fl, Some tel -> Atum_sim.Flight.set_telemetry fl tel
  | _ -> ());
  (* Our own monitor (displacing any earlier auditor): the convergence
     checker below polls its sweeps. *)
  let mon = Monitor.attach ?flight sys in
  let target_vg = match largest_vgroup sys with Some (vid, _) -> vid | None -> -1 in
  if attackers > 0 && target_vg >= 0 then
    for _ = 1 to attackers do
      let nid = System.spawn_node sys () in
      System.make_byzantine sys
        ~strategy:(System.Target_vgroup { vg = target_vg; inner = System.Equivocate })
        nid
    done;
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
      if restart || corrupt_log then default_restart_schedule built
      else default_schedule built
  in
  (* Per-phase delivery accounting, attributed by broadcast id: a
     message sent during a fault counts against "during" even if its
     stragglers arrive later.  Each (node, bid) pair counts once: a
     node whose corrupt store fell back to a fresh join re-delivers,
     through catch-up, broadcasts it had already delivered. *)
  let bid_phase = Hashtbl.create 256 in
  let counted = Hashtbl.create 1024 in
  let sent = Array.make 3 0 in
  let expected = Array.make 3 0 in
  let delivered = Array.make 3 0 in
  Atum.on_deliver atum (fun nid ~bid ~origin:_ _ ->
      match Hashtbl.find_opt bid_phase bid with
      | Some i when not (Hashtbl.mem counted (nid, bid)) ->
        Hashtbl.replace counted (nid, bid) ();
        delivered.(i) <- delivered.(i) + 1
      | Some _ | None -> ());
  let payload () = String.make (10 + Rng.int rng 91) 'x' in
  let tick phase_idx =
    (match Builder.correct_members built with
    | [] -> ()
    | correct ->
      let publisher = Rng.pick rng correct in
      let bid = Atum.broadcast atum ~from:publisher (payload ()) in
      Hashtbl.replace bid_phase bid phase_idx;
      sent.(phase_idx) <- sent.(phase_idx) + 1;
      expected.(phase_idx) <- expected.(phase_idx) + List.length correct);
    Atum.run_for atum gap
  in
  (* Phase 1: healthy baseline. *)
  for _ = 1 to messages_per_phase do
    tick 0
  done;
  let v_before = Monitor.violations mon in
  (* Phase 2: install the schedule, keep broadcasting through it. *)
  let t_fault = Atum.now atum in
  let fq =
    Fault.install ~on_crash:(System.crash sys) ~on_recover:(System.recover sys)
      ~on_restart:(fun nid -> System.restart sys nid)
      (System.network sys) schedule
  in
  (* Corrupt-log case: while the first restart victim is down, flip one
     byte inside its WAL, so its restart must detect the damage and
     fall back to wiping the store and fresh-joining. *)
  (match vfs with
  | Some vfs when corrupt_log ->
    List.iter
      (fun (e : Fault.entry) ->
        match e.Fault.step with
        | Fault.Restart { nodes = victim :: _; down } ->
          Atum_sim.Engine.schedule ~label:"chaos.corrupt_log" (Atum.engine atum)
            ~delay:(e.Fault.after +. (down /. 2.0))
            (fun () ->
              ignore
                (Atum_store.Vfs.corrupt_byte vfs ~node:victim
                   ~name:Atum_store.Replica.wal_name ~at:40))
        | _ -> ())
      schedule
  | _ -> ());
  (match Atum.telemetry atum with
  | Some tel -> Fault.attach_gauges fq tel
  | None -> ());
  (* Cheap check first: the incremental sweep costs O(vgroups hosting
     a faulted node) per poll and stays non-zero while any fault
     persists, so the O(N) full consistency scan runs only on the
     transition to clean — once per heal, not once per poll. *)
  let converged () =
    Monitor.sweep_dirty mon = 0
    && (match System.check_consistency sys with Ok () -> true | Error _ -> false)
  in
  let all_offsets =
    List.sort Float.compare
      (List.concat_map
         (fun (e : Fault.entry) ->
           e.Fault.after
           ::
           (match e.Fault.step with
           | Fault.Restart { down; _ } -> [ e.Fault.after +. down ]
           | _ -> []))
         schedule)
  in
  let heals =
    List.map
      (fun o : A.heal_record ->
        let heal_at = t_fault +. o in
        while Atum.now atum < heal_at do
          tick 1
        done;
        (* Poll until clean — but only until the next scheduled step:
           a heal whose crash victims are still down cannot converge,
           and pretending to wait for it would just burn the budget. *)
        let limit =
          let cap = heal_at +. heal_timeout in
          match List.find_opt (fun x -> x > o) all_offsets with
          | Some next -> Float.min cap (t_fault +. next)
          | None -> cap
        in
        (* Check before ticking: a heal whose repair completes exactly
           on a poll boundary used to be observed only after one more
           [gap]-long tick, crediting it to the next bucket and
           inflating every time-to-heal by up to [gap]. *)
        let converged_at = ref None in
        while Option.is_none !converged_at && Atum.now atum < limit do
          if converged () then converged_at := Some (Atum.now atum) else tick 1
        done;
        {
          heal_at;
          converged_at = !converged_at;
          time_to_heal = Option.map (fun c -> c -. heal_at) !converged_at;
        })
      (List.sort_uniq Float.compare (Fault.heal_offsets schedule))
  in
  let v_mid = Monitor.violations mon in
  (* Phase 3: healthy again (we hope) — measure, then drain.  An
     active adversary keeps churning (join/leave sagas are always in
     flight somewhere), so poll through the drain for a clean snapshot
     rather than judging whatever instant the drain happens to end
     on. *)
  for _ = 1 to messages_per_phase do
    tick 2
  done;
  let drain_end = Atum.now atum +. drain in
  let final_converged = ref (converged ()) in
  while (not !final_converged) && Atum.now atum < drain_end do
    Atum.run_for atum gap;
    final_converged := converged ()
  done;
  let final_converged = !final_converged in
  let v_after = Monitor.violations mon in
  let phases =
    List.map2
      (fun phase i : A.phase_stats ->
        {
          phase;
          broadcasts = sent.(i);
          expected = expected.(i);
          delivered = delivered.(i);
          success =
            (if expected.(i) = 0 then 0.0
             else float_of_int delivered.(i) /. float_of_int expected.(i));
        })
      [ "before"; "during"; "after" ] [ 0; 1; 2 ]
  in
  let tths = List.filter_map (fun (h : A.heal_record) -> h.time_to_heal) heals in
  let pctl samples =
    if samples = [] then []
    else
      [
        ("p50", Stats.percentile samples 50.0);
        ("p90", Stats.percentile samples 90.0);
        ("max", Stats.percentile samples 100.0);
      ]
  in
  let tth_percentiles = pctl tths in
  let restarts =
    List.map
      (fun (r : System.restart_report) : A.restart ->
        {
          node = r.r_node;
          restarted_at = r.r_restarted_at;
          rejoined_at = r.r_rejoined_at;
          caught_up_at = r.r_caught_up_at;
          fallback = r.r_fallback;
          replayed = r.r_replayed;
        })
      (System.restart_reports sys)
  in
  let since_restart at =
    List.filter_map
      (fun (r : A.restart) -> Option.map (fun t -> t -. r.restarted_at) (at r))
      restarts
  in
  let ttr_percentiles = pctl (since_restart (fun r -> r.rejoined_at)) in
  let ttc_percentiles = pctl (since_restart (fun r -> r.caught_up_at)) in
  let recovery_fallbacks =
    List.length (List.filter (fun (r : A.restart) -> r.fallback) restarts)
  in
  let converged =
    match List.rev heals with
    | (last : A.heal_record) :: _ -> Option.is_some last.converged_at || final_converged
    | [] -> final_converged
  in
  (* An unhealed fault span is a postmortem trigger in its own right:
     if no violation tripped the recorder mid-run (e.g. monitoring was
     quiet) but a heal never converged, capture the end state now. *)
  let postmortem =
    match flight with
    | None -> None
    | Some fl ->
      let unhealed =
        List.exists (fun (h : A.heal_record) -> Option.is_none h.time_to_heal) heals
        && not converged
      in
      if unhealed && Option.is_none (Atum_sim.Flight.tripped fl) then
        Atum_sim.Flight.trip fl ~reason:"fault.unhealed"
          ~detail:"a heal step never converged within its window" ();
      Atum_sim.Flight.last_path fl
  in
  {
    n = Atum.size atum;
    seed;
    target_vg;
    attackers;
    schedule;
    faults_applied = Fault.applied fq;
    phases;
    heals;
    tth_percentiles;
    restarts;
    ttr_percentiles;
    ttc_percentiles;
    recovery_fallbacks;
    violations_before = v_before;
    violations_during = diff_violations v_mid v_before;
    violations_after = diff_violations v_after v_mid;
    post_heal_deliveries = Metrics.counter (Atum.metrics atum) "net.deliver.post_heal";
    consistency =
      (match System.check_consistency sys with Ok () -> "ok" | Error e -> e);
    converged;
    (* Basename only: the artifact must not vary with the output
       directory (CI diffs same-seed runs from different dirs). *)
    postmortem = Option.map Filename.basename postmortem;
  }
