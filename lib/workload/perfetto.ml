(* Chrome trace_event export: turn an ATUM_*.json artifact (or an
   ATUM_postmortem.json) into a timeline Perfetto / chrome://tracing
   can load.

   Four tracks, one per "process":
     pid 1  sagas      — begin/end span pairs as complete ("X") slices,
                         one thread row per vgroup
     pid 2  broadcast  — bcast.hop / broadcast.sent / bcast.dup as
                         instants, one thread row per broadcast id
     pid 3  faults     — chaos-layer fault spans (partition..heal,
                         crash..recover, burst..end) as slices; a span
                         still open at the end of the trace is closed
                         at the last event time and tagged unhealed
     pid 4  engine     — the per-label profile as one slice per label,
                         vt_first..vt_last

   Timestamps are simulated time converted to integer microseconds, so
   the export is as deterministic as the artifact it came from. *)

module Json = Atum_util.Json
module Trace = Atum_sim.Trace

let pid_saga = 1
let pid_bcast = 2
let pid_fault = 3
let pid_engine = 4

let us t = Json.Int (int_of_float (Float.round (t *. 1e6)))

let str s = Json.String s

let opt_arg name v = if v < 0 then [] else [ (name, Json.Int v) ]

let complete ~name ~cat ~pid ~tid ~t0 ~t1 args =
  Json.Obj
    [
      ("name", str name);
      ("cat", str cat);
      ("ph", str "X");
      ("ts", us t0);
      ("dur", us (Float.max 0.0 (t1 -. t0)));
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let instant ~name ~cat ~pid ~tid ~t args =
  Json.Obj
    [
      ("name", str name);
      ("cat", str cat);
      ("ph", str "i");
      ("s", str "t");
      ("ts", us t);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let process_name ~pid name =
  Json.Obj
    [
      ("name", str "process_name");
      ("ph", str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", str name) ]);
    ]

let thread_name ~pid ~tid name =
  Json.Obj
    [
      ("name", str "thread_name");
      ("ph", str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", str name) ]);
    ]

(* --- fault spans ----------------------------------------------------- *)

(* Pair a fault's start kind with the kind that closes it.  Partition /
   heal are global (one open span at a time); crash / recover pair per
   node; the shaping faults carry their own ".end" markers. *)
let fault_close_of = function
  | "fault.partition" -> Some "fault.heal"
  | "fault.crash" -> Some "fault.recover"
  | "fault.loss_burst" -> Some "fault.loss_burst.end"
  | "fault.latency_spike" -> Some "fault.latency_spike.end"
  | "fault.capacity_degrade" -> Some "fault.capacity_degrade.end"
  | _ -> None

let fault_closes kind =
  match kind with
  | "fault.heal" | "fault.recover" | "fault.loss_burst.end"
  | "fault.latency_spike.end" | "fault.capacity_degrade.end" ->
    true
  | _ -> false

let short_fault kind =
  if String.length kind > 6 && String.sub kind 0 6 = "fault." then
    String.sub kind 6 (String.length kind - 6)
  else kind

(* --- conversion ------------------------------------------------------ *)

let of_events (events : Trace.event list) ~profile =
  let out = ref [] in
  let push ev = out := ev :: !out in
  let max_ts = ref 0.0 in
  (* saga spans: span id -> (name, t0, node, vgroup) *)
  let open_spans : (int, string * float * int * int) Hashtbl.t = Hashtbl.create 64 in
  (* fault spans: (start kind, node or -1) -> start time *)
  let open_faults : (string * int, float) Hashtbl.t = Hashtbl.create 8 in
  let saga_tids = Hashtbl.create 16 in
  let bcast_tids = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.time > !max_ts then max_ts := e.Trace.time;
      let kind = e.Trace.kind in
      match Analyze.saga_of_kind kind with
      | Some (name, true) when e.Trace.span >= 0 ->
        Hashtbl.replace open_spans e.Trace.span (name, e.Trace.time, e.Trace.node, e.Trace.vgroup)
      | Some (name, false) when e.Trace.span >= 0 -> (
        match Hashtbl.find_opt open_spans e.Trace.span with
        | Some (name0, t0, node, vgroup) ->
          Hashtbl.remove open_spans e.Trace.span;
          let tid = if vgroup >= 0 then vgroup else 0 in
          Hashtbl.replace saga_tids tid ();
          push
            (complete ~name:name0 ~cat:"saga" ~pid:pid_saga ~tid ~t0 ~t1:e.Trace.time
               (("span", Json.Int e.Trace.span) :: opt_arg "node" node
              @ opt_arg "vgroup" vgroup))
        | None ->
          (* begin fell off the ring: an instant keeps the end visible *)
          push
            (instant ~name:(name ^ " (end, begin lost)") ~cat:"saga" ~pid:pid_saga
               ~tid:(if e.Trace.vgroup >= 0 then e.Trace.vgroup else 0)
               ~t:e.Trace.time
               (("span", Json.Int e.Trace.span) :: opt_arg "node" e.Trace.node)))
      | _ ->
        if kind = "bcast.hop" || kind = "broadcast.sent" || kind = "bcast.dup" then begin
          let tid = if e.Trace.bid >= 0 then e.Trace.bid else 0 in
          Hashtbl.replace bcast_tids tid ();
          let name =
            match kind with
            | "broadcast.sent" -> "sent"
            | "bcast.dup" -> "dup"
            | _ -> "hop"
          in
          push
            (instant ~name ~cat:"bcast" ~pid:pid_bcast ~tid ~t:e.Trace.time
               (opt_arg "node" e.Trace.node @ opt_arg "vgroup" e.Trace.vgroup
              @ opt_arg "from_vg" e.Trace.parent @ opt_arg "cycle" e.Trace.cycle))
        end
        else if String.length kind > 6 && String.sub kind 0 6 = "fault." then begin
          match fault_close_of kind with
          | Some _ ->
            (* a start: crash spans pair per node, the rest globally *)
            let key = (kind, if kind = "fault.crash" then e.Trace.node else -1) in
            Hashtbl.replace open_faults key e.Trace.time
          | None ->
            if fault_closes kind then begin
              let close_one start_kind node =
                let key = (start_kind, node) in
                match Hashtbl.find_opt open_faults key with
                | Some t0 ->
                  Hashtbl.remove open_faults key;
                  push
                    (complete ~name:(short_fault start_kind) ~cat:"fault" ~pid:pid_fault
                       ~tid:(max 0 node) ~t0 ~t1:e.Trace.time (opt_arg "node" node))
                | None ->
                  push
                    (instant ~name:(short_fault kind) ~cat:"fault" ~pid:pid_fault
                       ~tid:(max 0 node) ~t:e.Trace.time (opt_arg "node" node))
              in
              match kind with
              | "fault.heal" -> close_one "fault.partition" (-1)
              | "fault.recover" -> close_one "fault.crash" e.Trace.node
              | "fault.loss_burst.end" -> close_one "fault.loss_burst" (-1)
              | "fault.latency_spike.end" -> close_one "fault.latency_spike" (-1)
              | _ -> close_one "fault.capacity_degrade" (-1)
            end
            else
              push
                (instant ~name:(short_fault kind) ~cat:"fault" ~pid:pid_fault ~tid:0
                   ~t:e.Trace.time
                   (opt_arg "node" e.Trace.node @ opt_arg "vgroup" e.Trace.vgroup))
        end
        else
          (* everything else (net.*, vgroup.*, monitor.violation.*, ...):
             an instant on the track of its subsystem keeps rare events
             like violations visible without a dedicated pid *)
          match kind with
          | k
            when String.length k > 18
                 && String.sub k 0 18 = "monitor.violation." ->
            push
              (instant ~name:k ~cat:"violation" ~pid:pid_fault ~tid:0 ~t:e.Trace.time
                 (opt_arg "node" e.Trace.node @ opt_arg "vgroup" e.Trace.vgroup
                @ opt_arg "bid" e.Trace.bid))
          | _ -> ())
    events;
  (* unhealed fault spans: close at the last event time, tagged *)
  let open_fault_list =
    List.sort compare (Hashtbl.fold (fun k t acc -> (k, t) :: acc) open_faults [])
  in
  List.iter
    (fun ((kind, node), t0) ->
      push
        (complete ~name:(short_fault kind ^ " (unhealed)") ~cat:"fault" ~pid:pid_fault
           ~tid:(max 0 node) ~t0 ~t1:(Float.max !max_ts t0)
           (("unhealed", Json.Bool true) :: opt_arg "node" node)))
    open_fault_list;
  (* engine profile: one slice per label over its vt_first..vt_last *)
  let engine_threads = ref [] in
  List.iteri
    (fun i (l : Atum_sim.Engine.label_profile) ->
      if l.events > 0 then begin
        engine_threads := (i, l.label) :: !engine_threads;
        push
          (complete ~name:l.label ~cat:"engine" ~pid:pid_engine ~tid:i ~t0:l.vt_first
             ~t1:l.vt_last
             [ ("events", Json.Int l.events); ("wall_self_s", Json.Float l.wall_self_s) ])
      end)
    profile;
  let sorted_tids tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
  let metadata =
    [
      process_name ~pid:pid_saga "sagas";
      process_name ~pid:pid_bcast "broadcast";
      process_name ~pid:pid_fault "faults";
      process_name ~pid:pid_engine "engine";
    ]
    @ List.map (fun tid -> thread_name ~pid:pid_saga ~tid (Printf.sprintf "vg %d" tid))
        (sorted_tids saga_tids)
    @ List.map (fun tid -> thread_name ~pid:pid_bcast ~tid (Printf.sprintf "bid %d" tid))
        (sorted_tids bcast_tids)
    @ List.map
        (fun (tid, label) -> thread_name ~pid:pid_engine ~tid label)
        (List.sort compare !engine_threads)
  in
  Json.Obj
    [
      ("displayTimeUnit", str "ms");
      ("traceEvents", Json.List (metadata @ List.rev !out));
    ]

let of_artifact a =
  match Atum_sim.Artifact.traced a with
  | None ->
    Error "artifact carries no trace (export-trace reads ATUM_<cmd>.json runs and postmortems)"
  | Some (tr, _, prof) -> Ok (of_events tr.events ~profile:prof.labels)

let output_name source =
  let base = Filename.remove_extension (Filename.basename source) in
  base ^ ".trace.json"

let write ~dir ~source doc =
  let path = Filename.concat dir (output_name source) in
  Json.write_file ~path doc;
  path
