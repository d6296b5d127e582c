(* Scripted fault injection: a declarative, sim-time-driven schedule of
   network faults and their inverses, executed by labeled Engine tasks.

   The schedule is data (serializable into artifacts); every step is
   applied at a fixed offset from [install] time, so a seeded run with
   a fixed schedule is exactly reproducible.  Node-level steps (Crash /
   Recover) default to the network-level crashed set but accept hooks,
   which is how the runtime layers a registry-aware crash
   (System.crash / System.recover) on top without this module depending
   on it. *)

type step =
  | Partition of int list list
      (* group i gets partition tag i+1; unlisted nodes stay at tag 0 *)
  | Heal
  | Crash of int list
  | Recover of int list
  | Loss_burst of { p : float; duration : float }
  | Latency_spike of { factor : float; duration : float }
  | Capacity_degrade of { factor : float; duration : float }
  | Restart of { nodes : int list; down : float }
      (* crash at [after], cold-restart automatically [down] seconds later *)

type entry = { after : float; step : step }

type schedule = entry list

let step_name = function
  | Partition _ -> "partition"
  | Heal -> "heal"
  | Crash _ -> "crash"
  | Recover _ -> "recover"
  | Loss_burst _ -> "loss_burst"
  | Latency_spike _ -> "latency_spike"
  | Capacity_degrade _ -> "capacity_degrade"
  | Restart _ -> "restart"

let validate_step = function
  | Partition groups ->
    if List.exists (fun g -> g = []) groups then
      invalid_arg "Fault: Partition with an empty group"
  | Heal -> ()
  | Crash [] | Recover [] -> invalid_arg "Fault: Crash/Recover with no nodes"
  | Crash _ | Recover _ -> ()
  | Loss_burst { p; duration } ->
    if p < 0.0 || p > 1.0 then invalid_arg "Fault: Loss_burst p outside [0, 1]";
    if duration <= 0.0 then invalid_arg "Fault: Loss_burst duration must be positive"
  | Latency_spike { factor; duration } ->
    if factor <= 0.0 then invalid_arg "Fault: Latency_spike factor must be positive";
    if duration <= 0.0 then invalid_arg "Fault: Latency_spike duration must be positive"
  | Capacity_degrade { factor; duration } ->
    if factor <= 0.0 then invalid_arg "Fault: Capacity_degrade factor must be positive";
    if duration <= 0.0 then invalid_arg "Fault: Capacity_degrade duration must be positive"
  | Restart { nodes; down } ->
    if nodes = [] then invalid_arg "Fault: Restart with no nodes";
    if down <= 0.0 then invalid_arg "Fault: Restart down time must be positive"

let validate schedule =
  List.iter
    (fun e ->
      if e.after < 0.0 then invalid_arg "Fault: negative schedule offset";
      validate_step e.step)
    schedule;
  (* Cross-step ordering: an inverse step must have something to undo.
     A Recover of a node never crashed, or a Heal with no partition in
     force, silently did nothing before this check existed — a schedule
     typo that made chaos runs look healthier than they were. *)
  let by_time = List.stable_sort (fun a b -> Float.compare a.after b.after) schedule in
  let crashed = Hashtbl.create 8 in
  let partitioned = ref false in
  List.iter
    (fun e ->
      match e.step with
      | Partition _ -> partitioned := true
      | Heal ->
        if not !partitioned then invalid_arg "Fault: Heal with no preceding Partition";
        partitioned := false
      | Crash nodes -> List.iter (fun n -> Hashtbl.replace crashed n ()) nodes
      | Recover nodes ->
        List.iter
          (fun n ->
            if not (Hashtbl.mem crashed n) then
              invalid_arg
                (Printf.sprintf "Fault: Recover of node %d with no preceding Crash" n);
            Hashtbl.remove crashed n)
          nodes
      | Restart _ (* crashes and revives its own nodes *)
      | Loss_burst _ | Latency_spike _ | Capacity_degrade _ -> ())
    by_time

let span schedule =
  List.fold_left
    (fun acc e ->
      let until =
        match e.step with
        | Loss_burst { duration; _ }
        | Latency_spike { duration; _ }
        | Capacity_degrade { duration; _ } ->
          e.after +. duration
        | Restart { down; _ } -> e.after +. down
        | Partition _ | Heal | Crash _ | Recover _ -> e.after
      in
      Float.max acc until)
    0.0 schedule

let heal_offsets schedule =
  List.filter_map
    (fun e ->
      match e.step with
      | Heal | Recover _ -> Some e.after
      | Restart { down; _ } -> Some (e.after +. down)
      | _ -> None)
    schedule

type t = {
  mutable applied : int; (* steps executed so far *)
  mutable partitioned : bool;
  mutable crashed : int; (* nodes currently held in the crashed set by this schedule *)
  mutable bursts : int; (* transient faults (loss/latency/capacity) in flight *)
}

let applied t = t.applied

let active t = (if t.partitioned then 1 else 0) + t.crashed + t.bursts

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let install ?on_crash ?on_recover ?on_restart (net : 'msg Network.t) schedule =
  validate schedule;
  let engine = Network.engine net in
  let metrics = Network.metrics net in
  let t = { applied = 0; partitioned = false; crashed = 0; bursts = 0 } in
  let emit ~kind ?node ?size () =
    Metrics.incr metrics kind;
    match Network.trace net with
    | Some tr when Trace.enabled tr ->
      Trace.emit tr ~time:(Engine.now engine) ~kind ?node ?size ()
    | _ -> ()
  in
  let crash_node = match on_crash with Some f -> f | None -> Network.crash net in
  let recover_node = match on_recover with Some f -> f | None -> Network.recover net in
  let restart_node = match on_restart with Some f -> f | None -> recover_node in
  let apply step =
    t.applied <- t.applied + 1;
    match step with
    | Partition groups ->
      List.iteri
        (fun i group -> List.iter (fun node -> Network.set_partition net node (i + 1)) group)
        groups;
      t.partitioned <- true;
      emit ~kind:"fault.partition"
        ~size:(List.fold_left (fun acc g -> acc + List.length g) 0 groups)
        ()
    | Heal ->
      Network.heal net;
      t.partitioned <- false;
      emit ~kind:"fault.heal" ()
    | Crash nodes ->
      List.iter
        (fun node ->
          crash_node node;
          t.crashed <- t.crashed + 1;
          emit ~kind:"fault.crash" ~node ())
        nodes
    | Recover nodes ->
      List.iter
        (fun node ->
          recover_node node;
          if t.crashed > 0 then t.crashed <- t.crashed - 1;
          emit ~kind:"fault.recover" ~node ())
        nodes
    | Loss_burst { p; duration } ->
      Network.set_loss_boost net p;
      t.bursts <- t.bursts + 1;
      emit ~kind:"fault.loss_burst" ();
      Engine.schedule ~label:"fault.loss_burst.end" engine ~delay:duration (fun () ->
          Network.set_loss_boost net 0.0;
          t.bursts <- t.bursts - 1;
          emit ~kind:"fault.loss_burst.end" ())
    | Latency_spike { factor; duration } ->
      Network.set_latency_factor net factor;
      t.bursts <- t.bursts + 1;
      emit ~kind:"fault.latency_spike" ();
      Engine.schedule ~label:"fault.latency_spike.end" engine ~delay:duration (fun () ->
          Network.set_latency_factor net 1.0;
          t.bursts <- t.bursts - 1;
          emit ~kind:"fault.latency_spike.end" ())
    | Capacity_degrade { factor; duration } ->
      Network.set_capacity_factor net factor;
      t.bursts <- t.bursts + 1;
      emit ~kind:"fault.capacity_degrade" ();
      Engine.schedule ~label:"fault.capacity_degrade.end" engine ~delay:duration (fun () ->
          Network.set_capacity_factor net 1.0;
          t.bursts <- t.bursts - 1;
          emit ~kind:"fault.capacity_degrade.end" ())
    | Restart { nodes; down } ->
      List.iter
        (fun node ->
          crash_node node;
          t.crashed <- t.crashed + 1;
          emit ~kind:"fault.restart.down" ~node ())
        nodes;
      Engine.schedule ~label:"fault.restart.up" engine ~delay:down (fun () ->
          List.iter
            (fun node ->
              restart_node node;
              if t.crashed > 0 then t.crashed <- t.crashed - 1;
              emit ~kind:"fault.restart.up" ~node ())
            nodes)
  in
  List.iter
    (fun e ->
      Engine.schedule ~label:("fault." ^ step_name e.step) engine ~delay:e.after (fun () ->
          apply e.step))
    schedule;
  t

let attach_gauges t telemetry =
  Telemetry.register telemetry "fault.active" (fun () -> float_of_int (active t));
  Telemetry.register telemetry "fault.applied" (fun () -> float_of_int t.applied)
