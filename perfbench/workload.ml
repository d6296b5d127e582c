(* The three benchmark workloads.  An episode builds a fresh
   deployment, warms it up, schedules an open-loop op stream in
   simulated time, runs a fixed simulated window, and then settles and
   checks its outputs outside the timed window.  Only public entry
   points of the system are called, each inside a span. *)

module Atum = Atum_core.Atum
module System = Atum_core.System
module Params = Atum_core.Params
module Ashare = Atum_apps.Ashare
module Engine = Atum_sim.Engine
module Metrics = Atum_sim.Metrics
module Network = Atum_sim.Network
module Trace = Atum_sim.Trace
module Replica = Atum_store.Replica
module Rng = Atum_util.Rng
module Bitset = Atum_util.Bitset

type kind = Bcast_wan | Churn | Durable

let all = [ Bcast_wan; Churn; Durable ]
let name = function Bcast_wan -> "bcast_wan" | Churn -> "churn" | Durable -> "durable"
let of_name s = List.find_opt (fun k -> name k = s) all

type size = {
  nodes : int;
  ops : int;
  rate : float;
  drain_s : float;
  warmup_ops : int;
  bcast_every : int;
  crash_every : int;
  down_s : float;
}

let full = function
  | Bcast_wan ->
    { nodes = 5_000; ops = 40; rate = 4.0; drain_s = 10.0; warmup_ops = 2; bcast_every = 0;
      crash_every = 0; down_s = 0.0 }
  | Churn ->
    { nodes = 1_500; ops = 100; rate = 2.0; drain_s = 50.0; warmup_ops = 10; bcast_every = 2;
      crash_every = 0; down_s = 0.0 }
  | Durable ->
    { nodes = 500; ops = 60; rate = 1.0; drain_s = 20.0; warmup_ops = 10; bcast_every = 0;
      crash_every = 10; down_s = 5.0 }

let toy = function
  | Bcast_wan -> { (full Bcast_wan) with nodes = 120; ops = 6; warmup_ops = 1 }
  | Churn -> { (full Churn) with nodes = 80; ops = 6; bcast_every = 3; warmup_ops = 2 }
  | Durable -> { (full Durable) with nodes = 60; ops = 12; crash_every = 4; warmup_ops = 4 }

type store_stats = {
  fsyncs : int;
  replayed : int;
  timed : Timed_backend.t option;
}

type episode = {
  seed : int;
  setup_s : float;
  measure_s : float;
  window_s : float;
  ops : int;
  completed : int;
  tally : Tally.t;
  consistency : (unit, string) result;
  delivery : float list;
  join : float list;
  recovery : float list;
  events : int;
  msgs : int;
  bytes : int;
  drops : int;
  counters : (string * int) list;
  profile : (string * int * float) list;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  store : store_stats option;
  sink : Trace_sink.t option;
  spans : Spans.t;
}

let wall = Unix.gettimeofday
let payload rng len = String.init len (fun _ -> Char.chr (97 + Rng.int rng 26))

type ctx = {
  atum : Atum.t;
  sys : System.t;
  rng : Rng.t;
  sp : Spans.t;
  size : size;
  mutable ashare : Ashare.t option;
  mutable timed : Timed_backend.t option;
}

let call ctx name f = Spans.with_span ctx.sp ("call." ^ name) f
let run_until ctx t = call ctx "run_for" (fun () -> Atum.run_until ctx.atum t)

(* The measured window.  Traced, it runs in slices short enough that
   the trace ring rarely wraps between two drains into [sink]: a slice
   halves after a wrap and doubles while the ring stays under a
   quarter full. *)
let window ctx ~until sink =
  match sink with
  | None -> run_until ctx until
  | Some sink ->
    let trace = Atum.trace ctx.atum in
    let slice = ref 0.05 in
    while Atum.now ctx.atum < until do
      run_until ctx (Float.min until (Atum.now ctx.atum +. !slice));
      let wrapped = Trace.dropped trace > 0 and fill = Trace.length trace in
      Trace_sink.drain sink trace;
      if wrapped then slice := !slice /. 2.0
      else if fill < Trace.capacity trace / 4 then slice := Float.min 1.0 (!slice *. 2.0)
    done

(* Run in one-second slices until [finished] or [limit] more seconds. *)
let settle ctx ~limit ~finished =
  let deadline = Atum.now ctx.atum +. limit in
  while (not (finished ())) && Atum.now ctx.atum < deadline do
    run_until ctx (Float.min deadline (Atum.now ctx.atum +. 1.0))
  done

let live_ids ctx =
  Array.of_list (List.map (fun (n : System.node) -> n.System.id) (System.live_nodes ctx.sys))

(* Open loop: op [i] fires at a seeded uniform point of its slot
   [start + [i, i+1) / rate] in simulated time, whatever happened to
   earlier ops.  The offset spreads ops over the phases of the Sync
   round clock, so latencies are not all multiples of one wait. *)
let schedule_ops ctx ~ops ~start f =
  let fired = ref 0 in
  for i = 0 to ops - 1 do
    let at = start +. ((float_of_int i +. Rng.float ctx.rng 1.0) /. ctx.size.rate) in
    Engine.schedule_at ~label:"perfbench.op" (Atum.engine ctx.atum) ~time:at (fun () ->
        incr fired;
        Spans.with_span ctx.sp ~op:i "op" (fun () -> f i))
  done;
  fun () -> !fired = ops

(* What a scheduled op stream exposes to the runner. *)
type load = {
  completed : unit -> int;  (** ops complete so far *)
  settled : unit -> bool;  (** nothing a check waits for is in flight *)
  check : Tally.t -> unit;
}

(* --- bcast_wan: broadcasts on a static deployment --------------------- *)

let bcast_load ctx ~ops ~start =
  let ids = live_ids ctx in
  let seen = Array.init ops (fun _ -> Bitset.create ()) in
  let got = Array.make ops 0 and dups = ref 0 in
  let op_of_bid = Hashtbl.create ops in
  Atum.on_deliver ctx.atum (fun nid ~bid ~origin:_ _ ->
      match Hashtbl.find_opt op_of_bid bid with
      | Some i ->
        if Bitset.mem seen.(i) nid then incr dups
        else begin
          Bitset.set seen.(i) nid;
          got.(i) <- got.(i) + 1
        end
      | None -> ());
  let fired =
    schedule_ops ctx ~ops ~start (fun i ->
        let from = Rng.pick_array ctx.rng ids in
        let body = payload ctx.rng 140 in
        let bid = call ctx "broadcast" (fun () -> Atum.broadcast ctx.atum ~from body) in
        Hashtbl.replace op_of_bid bid i)
  in
  let expected = Array.length ids in
  let completed () = Array.fold_left (fun acc g -> if g >= expected then acc + 1 else acc) 0 got in
  {
    completed;
    settled = (fun () -> fired () && completed () = ops);
    check =
      (fun tally ->
        let missing = Array.fold_left (fun acc g -> acc + (expected - g)) 0 got in
        Tally.add tally "(node, broadcast) pairs never delivered" ~attempted:(ops * expected)
          ~failed:missing;
        Tally.add tally "(node, broadcast) pairs delivered twice" ~attempted:(ops * expected)
          ~failed:(min !dups (ops * expected)));
  }

(* --- churn: leave+join pairs with broadcasts in between --------------- *)

let churn_load ctx ~ops ~start =
  let joined = ref 0 in
  let leaving = Hashtbl.create ops in
  (* Per broadcast: the members present when it was issued, and who
     delivered it.  A member that never left must deliver. *)
  let bcasts = Hashtbl.create 16 in
  Atum.on_deliver ctx.atum (fun nid ~bid ~origin:_ _ ->
      match Hashtbl.find_opt bcasts bid with
      | Some (_, seen) -> Bitset.set seen nid
      | None -> ());
  let pick_member ids =
    let rec go tries =
      let id = Rng.pick_array ctx.rng ids in
      if Hashtbl.mem leaving id && tries > 0 then go (tries - 1) else id
    in
    go 64
  in
  let fired =
    schedule_ops ctx ~ops ~start (fun i ->
        let ids = live_ids ctx in
        let victim = pick_member ids in
        Hashtbl.replace leaving victim ();
        call ctx "leave" (fun () -> Atum.leave ctx.atum victim);
        let contact = pick_member ids in
        ignore
          (call ctx "join" (fun () ->
               Atum.join_with ctx.atum ~contact ~on_joined:(fun _ -> incr joined) ()));
        if ctx.size.bcast_every > 0 && i mod ctx.size.bcast_every = 0 then begin
          let from = pick_member ids in
          let body = payload ctx.rng 140 in
          let bid = call ctx "broadcast" (fun () -> Atum.broadcast ctx.atum ~from body) in
          Hashtbl.replace bcasts bid (ids, Bitset.create ())
        end)
  in
  {
    completed = (fun () -> !joined);
    settled = (fun () -> fired () && !joined >= ops);
    check =
      (fun tally ->
        Tally.add tally "joins never installed" ~attempted:ops ~failed:(ops - !joined);
        let stayed nid = Atum.is_member ctx.atum nid && not (Hashtbl.mem leaving nid) in
        let attempted = ref 0 and missing = ref 0 in
        Hashtbl.iter
          (fun _ (ids, seen) ->
            Array.iter
              (fun nid ->
                if stayed nid then begin
                  incr attempted;
                  if not (Bitset.mem seen nid) then incr missing
                end)
              ids)
          bcasts;
        Tally.add tally "(staying member, broadcast) pairs never delivered" ~attempted:!attempted
          ~failed:!missing);
  }

(* --- durable: AShare puts over a WAL-backed store, with restarts ------ *)

let durable_load ctx ~ops ~start =
  let ash = Option.get ctx.ashare in
  let puts = Array.make ops (-1, "") in
  let restarts = ref 0 in
  let fired =
    schedule_ops ctx ~ops ~start (fun i ->
        let ids = live_ids ctx in
        let owner = Rng.pick_array ctx.rng ids in
        let name = Printf.sprintf "f%.0f-%d" start i in
        puts.(i) <- (owner, name);
        let body = payload ctx.rng 64 in
        call ctx "put" (fun () -> Ashare.put ash ~owner ~name (Ashare.Real body));
        if ctx.size.crash_every > 0 && i mod ctx.size.crash_every = ctx.size.crash_every / 2 then begin
          let victim = Rng.pick_array ctx.rng ids in
          if victim <> owner then begin
            call ctx "crash" (fun () -> Atum.crash ctx.atum victim);
            incr restarts;
            Engine.schedule ~label:"perfbench.op" (Atum.engine ctx.atum) ~delay:ctx.size.down_s
              (fun () ->
                Spans.with_span ctx.sp ~op:i "op" (fun () ->
                    call ctx "restart" (fun () -> System.restart ctx.sys victim)))
          end
        end)
  in
  let members () =
    List.filter_map
      (fun (nd : System.node) -> if nd.System.byzantine then None else Some nd.System.id)
      (System.live_nodes ctx.sys)
  in
  let indexed nid (owner, name) =
    owner >= 0 && Ashare.replica_count ash ~node:nid ~owner:(Ashare.owner_name owner) ~name > 0
  in
  let reports0 = List.length (System.restart_reports ctx.sys) in
  let reports () = List.filteri (fun i _ -> i >= reports0) (System.restart_reports ctx.sys) in
  let caught_up () =
    List.length (reports ()) = !restarts
    && List.for_all (fun (r : System.restart_report) -> r.System.r_caught_up_at <> None) (reports ())
  in
  let completed () =
    let ms = members () in
    Array.fold_left
      (fun acc p -> if List.for_all (fun nid -> indexed nid p) ms then acc + 1 else acc)
      0 puts
  in
  {
    completed;
    settled = (fun () -> fired () && caught_up ());
    check =
      (fun tally ->
        let ms = members () in
        let missing =
          List.fold_left
            (fun acc nid ->
              Array.fold_left (fun acc p -> if indexed nid p then acc else acc + 1) acc puts)
            0 ms
        in
        Tally.add tally "(member, put) pairs missing from the index"
          ~attempted:(ops * List.length ms) ~failed:missing;
        let bad =
          List.length
            (List.filter
               (fun (r : System.restart_report) ->
                 r.System.r_fallback || r.System.r_caught_up_at = None)
               (reports ()))
        in
        (* A restart with no report yet never came back. *)
        let never = !restarts - List.length (reports ()) in
        Tally.add tally "restarts that fell back or never caught up" ~attempted:!restarts
          ~failed:(bad + never));
  }

let load ctx kind =
  match kind with Bcast_wan -> bcast_load ctx | Churn -> churn_load ctx | Durable -> durable_load ctx

(* --- set-up: build, attach, warm up -------------------------------------- *)

let create ~traced kind size ~seed =
  let protocol, net_config =
    match kind with
    | Bcast_wan | Durable -> (Params.Async, Network.wan_config ~seed)
    | Churn -> (Params.Sync, Network.datacenter_config ~seed)
  in
  let params = Params.for_system_size ~protocol ~seed size.nodes in
  let trace_capacity = Trace.capacity_for_scale ~nodes:size.nodes in
  let atum = Atum.create ~params ~net_config ~trace_capacity () in
  if traced then begin
    let trace = Atum.trace atum in
    Trace.set_enabled trace true;
    (* The per-message kinds are counted but not recorded: one Sync
       round emits more of them at a single instant than the ring
       holds, which would overwrite the lineage and saga events the
       per-layer numbers are read from. *)
    List.iter
      (fun kind -> Trace.set_level trace ~kind Trace.Debug)
      [ "net.send"; "net.deliver"; "bcast.dup" ]
  end;
  atum

(* The warm-up fills the lazily built state the measured window would
   otherwise pay for: every vgroup's SMR instance, gossip views, the
   first store files and snapshots, and heap growth.  It runs the
   workload's own ops, then drains them. *)
let setup ctx kind =
  let sys = ctx.sys in
  ignore (call ctx "attach_telemetry" (fun () -> Atum.attach_telemetry ctx.atum));
  ignore (call ctx "build_direct" (fun () -> System.build_direct sys ~nodes:ctx.size.nodes ()));
  if kind = Durable then begin
    let vfs = Atum_store.Vfs.create ~now:(fun () -> Atum.now ctx.atum) () in
    let backend = Atum_store.Vfs.backend vfs in
    let backend =
      if Trace.enabled (Atum.trace ctx.atum) then begin
        let timed, b = Timed_backend.wrap backend in
        ctx.timed <- Some timed;
        b
      end
      else backend
    in
    ignore (call ctx "attach_store" (fun () -> System.attach_store sys backend));
    let ash = call ctx "ashare.attach" (fun () -> Ashare.attach ctx.atum ~rho:3) in
    call ctx "ashare.enable_persistence" (fun () -> Ashare.enable_persistence ash);
    ctx.ashare <- Some ash
  end;
  Spans.with_span ctx.sp "warmup" (fun () ->
      List.iter
        (fun vid ->
          match System.vgroup_opt sys vid with
          | Some vg when not vg.System.retired ->
            call ctx "agree" (fun () -> System.agree sys vg "warmup" ignore)
          | _ -> ())
        (System.vgroup_ids sys);
      let ops = ctx.size.warmup_ops in
      let l = load ctx kind ~ops ~start:(Atum.now ctx.atum) in
      settle ctx ~limit:(float_of_int ops /. ctx.size.rate +. ctx.size.drain_s) ~finished:l.settled)

(* --- one episode ----------------------------------------------------------- *)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let counter_delta before after =
  List.filter_map
    (fun (k, v) ->
      let d = v - Option.value (List.assoc_opt k before) ~default:0 in
      if d <> 0 then Some (k, d) else None)
    after

let profile_delta before after =
  List.map
    (fun (p : Engine.label_profile) ->
      match
        List.find_opt (fun (q : Engine.label_profile) -> q.Engine.label = p.Engine.label) before
      with
      | Some q ->
        (p.Engine.label, p.Engine.events - q.Engine.events, p.Engine.wall_self_s -. q.Engine.wall_self_s)
      | None -> (p.Engine.label, p.Engine.events, p.Engine.wall_self_s))
    after

let samples_from metrics name from = List.filteri (fun i _ -> i >= from) (Metrics.samples metrics name)

let run ?(traced = false) kind size ~seed =
  Gc.compact ();
  let sp = Spans.create ~enabled:traced () in
  let t0 = wall () in
  let ctx =
    Spans.with_span sp "setup" (fun () ->
        let atum = Spans.with_span sp "call.create" (fun () -> create ~traced kind size ~seed) in
        let ctx =
          { atum; sys = Atum.system atum; rng = Rng.create seed; sp; size; ashare = None; timed = None }
        in
        setup ctx kind;
        ctx)
  in
  let setup_s = wall () -. t0 in
  let atum = ctx.atum and sys = ctx.sys in
  let metrics = Atum.metrics atum and net = System.network sys and eng = Atum.engine atum in
  let trace = Atum.trace atum in
  Trace.clear trace;
  let counters0 = (Metrics.snapshot metrics).Metrics.snap_counters in
  let prof0 = Engine.profile eng in
  let lat0 = List.length (Metrics.samples metrics "broadcast.latency") in
  let join0 = List.length (Metrics.samples metrics "join.latency") in
  let reports0 = List.length (System.restart_reports sys) in
  let ev0 = Engine.events_processed eng in
  let msgs0 = Network.messages_sent net and bytes0 = Network.bytes_sent net in
  let drops0 = Network.messages_dropped net in
  let st0 = Option.map (fun r -> (Replica.fsyncs r, Replica.replayed r)) (System.store sys) in
  Gc.minor ();
  let gc0 = Gc.quick_stat () and words0 = alloc_words () in
  let start = Atum.now atum in
  let window_s = (float_of_int size.ops /. size.rate) +. size.drain_s in
  let sink = if traced then Some (Trace_sink.create ()) else None in
  Option.iter Timed_backend.reset ctx.timed;
  let t1 = wall () in
  let l =
    Spans.with_span sp "measure" (fun () ->
        let l = load ctx kind ~ops:size.ops ~start in
        window ctx ~until:(start +. window_s) sink;
        l)
  in
  let measure_s = wall () -. t1 in
  Gc.minor ();
  let words1 = alloc_words () and gc1 = Gc.quick_stat () in
  (* Everything below reads the window's results or settles in-flight
     work for the checks; none of it is timed. *)
  let completed = l.completed () in
  let events = Engine.events_processed eng - ev0 in
  let msgs = Network.messages_sent net - msgs0 and bytes = Network.bytes_sent net - bytes0 in
  let drops = Network.messages_dropped net - drops0 in
  let counters = counter_delta counters0 (Metrics.snapshot metrics).Metrics.snap_counters in
  let profile = profile_delta prof0 (Engine.profile eng) in
  let delivery = samples_from metrics "broadcast.latency" lat0 in
  let join = samples_from metrics "join.latency" join0 in
  let store =
    match (System.store sys, st0) with
    | Some r, Some (f, p) ->
      Some
        {
          fsyncs = Replica.fsyncs r - f;
          replayed = Replica.replayed r - p;
          timed = Option.map Timed_backend.copy ctx.timed;
        }
    | _ -> None
  in
  Trace.set_enabled trace false;
  (* A saga in flight legitimately leaves the registry mid-change
     (a split's new vgroup is not on the overlay yet), so the
     consistency check waits for every vgroup to be idle. *)
  let idle () =
    List.for_all
      (fun vid ->
        match System.vgroup_opt sys vid with Some vg -> vg.System.retired || not vg.System.busy | None -> true)
      (System.vgroup_ids sys)
  in
  Spans.with_span sp "settle" (fun () ->
      settle ctx ~limit:300.0 ~finished:(fun () -> l.settled () && idle ()));
  let tally = Tally.create () in
  l.check tally;
  let recovery =
    List.filteri (fun i _ -> i >= reports0) (System.restart_reports sys)
    |> List.filter_map (fun (r : System.restart_report) ->
           Option.map (fun c -> c -. r.System.r_restarted_at) r.System.r_caught_up_at)
  in
  {
    seed;
    setup_s;
    measure_s;
    window_s;
    ops = size.ops;
    completed;
    tally;
    consistency = System.check_consistency sys;
    delivery;
    join;
    recovery;
    events;
    msgs;
    bytes;
    drops;
    counters;
    profile;
    alloc_words = words1 -. words0;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    store;
    sink;
    spans = sp;
  }

let counter e name = Option.value (List.assoc_opt name e.counters) ~default:0

(* The simulation-derived numbers of an episode.  [`Traced] keeps the
   ones a traced run must reproduce exactly; [`Full] adds everything
   that repeats across same-seed untraced runs. *)
let fingerprint which e =
  let i k v = (k, string_of_int v) and f k v = (k, Printf.sprintf "%h" v) in
  let traced =
    [ i "engine.events" e.events; i "network.msgs" e.msgs; i "deliveries" (counter e "broadcast.delivered") ]
  in
  match which with
  | `Traced -> traced
  | `Full ->
    let sum xs = List.fold_left ( +. ) 0.0 xs in
    traced
    @ [
        i "completed" e.completed; i "network.bytes" e.bytes; i "network.drops" e.drops;
        i "attempted" (Tally.attempted e.tally); i "failed" (Tally.failed e.tally);
        f "alloc_words" e.alloc_words; f "delivery.sum" (sum e.delivery); f "join.sum" (sum e.join);
        f "recovery.sum" (sum e.recovery);
      ]
