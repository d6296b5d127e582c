module Atum = Atum_core.Atum
module System = Atum_core.System
module Hgraph = Atum_overlay.Hgraph

type node_id = int

type t = {
  atum : Atum.t;
  src : node_id;
  primary : (node_id, node_id list) Hashtbl.t;
  shortcuts : (node_id, node_id list) Hashtbl.t;
}

let source t = t.src

let parents t nid = Option.value ~default:[] (Hashtbl.find_opt t.primary nid)

let shortcut_parents t nid = Option.value ~default:[] (Hashtbl.find_opt t.shortcuts nid)

let correct sys nid =
  match System.node_opt sys nid with
  | Some n -> n.System.alive && not n.System.byzantine
  | None -> false

let build ~atum ~source:src ~cycles_used ~seed =
  let sys = Atum.system atum in
  let hg = System.hgraph sys in
  let p = Atum.params atum in
  if cycles_used < 1 || cycles_used > p.Atum_core.Params.hc then
    invalid_arg "Astream.build: cycles_used out of range";
  if not (Atum.is_member atum src) then invalid_arg "Astream.build: source not a member";
  let rng = Atum_util.Rng.create seed in
  (* Deterministic cycle/direction choice, known to every node: hash
     the stream seed. *)
  let base_cycle = abs (Hashtbl.hash (seed, "cycle")) mod p.Atum_core.Params.hc in
  let direction_left = Hashtbl.hash (seed, "dir") land 1 = 0 in
  let cycles = List.init cycles_used (fun i -> (base_cycle + i) mod p.Atum_core.Params.hc) in
  let src_vg = Option.get (Atum.vgroup_of atum src) in
  (* A vgroup mid-split may be missing from some cycles; fall back to
     the vgroup itself so its nodes take the source path directly. *)
  let upstream ~cycle vid =
    let up =
      if direction_left then Hgraph.predecessor_opt hg ~cycle vid
      else Hgraph.successor_opt hg ~cycle vid
    in
    Option.value ~default:vid up
  in
  let t = { atum; src; primary = Hashtbl.create 64; shortcuts = Hashtbl.create 64 } in
  let fault_bound g =
    match p.Atum_core.Params.protocol with
    | Atum_core.Params.Sync -> Atum_smr.Smr_intf.sync_f ~group_size:g
    | Atum_core.Params.Async -> Atum_smr.Smr_intf.async_f ~group_size:g
  in
  List.iter
    (fun vid ->
      let members = Atum.members_of_vgroup atum vid in
      List.iter
        (fun nid ->
          if nid <> src then begin
            let prim =
              List.concat_map
                (fun cycle ->
                  let up = upstream ~cycle vid in
                  if up = src_vg || vid = src_vg then [ src ]
                  else begin
                    let candidates = Atum.members_of_vgroup atum up in
                    let g = List.length candidates in
                    let want = min g (fault_bound g + 1) in
                    Atum_util.Rng.sample_without_replacement rng want candidates
                  end)
                cycles
            in
            Hashtbl.replace t.primary nid (List.sort_uniq Int.compare prim |> fun l ->
              (* keep a deterministic but shuffled preference order *)
              Atum_util.Rng.shuffle_list rng l);
            (* One shortcut parent per other neighboring vgroup. *)
            let other_neighbors =
              List.filter
                (fun v -> v <> vid && not (List.exists (fun c -> upstream ~cycle:c vid = v) cycles))
                (Hgraph.neighbor_set hg vid)
            in
            let sc =
              List.filter_map
                (fun v ->
                  match Atum.members_of_vgroup atum v with
                  | [] -> None
                  | ms -> Some (Atum_util.Rng.pick rng ms))
                other_neighbors
            in
            Hashtbl.replace t.shortcuts nid sc
          end)
        members)
    (Hgraph.vertices hg);
  t

(* Reachability through correct parents only. *)
let reachable t =
  let sys = Atum.system t.atum in
  let reached = Hashtbl.create 64 in
  Hashtbl.replace reached t.src ();
  (* children index *)
  let children = Hashtbl.create 64 in
  let add_edge parent child =
    let l = Option.value ~default:[] (Hashtbl.find_opt children parent) in
    Hashtbl.replace children parent (child :: l)
  in
  Hashtbl.iter
    (fun child ps -> List.iter (fun parent -> add_edge parent child) ps)
    t.primary;
  Hashtbl.iter
    (fun child ps -> List.iter (fun parent -> add_edge parent child) ps)
    t.shortcuts;
  let rec visit nid =
    List.iter
      (fun child ->
        if (not (Hashtbl.mem reached child)) && correct sys child then begin
          Hashtbl.replace reached child ();
          visit child
        end)
      (Option.value ~default:[] (Hashtbl.find_opt children nid))
  in
  (* Only correct parents actually relay chunks. *)
  let rec visit_correct nid =
    if correct sys nid || nid = t.src then
      List.iter
        (fun child ->
          if not (Hashtbl.mem reached child) then begin
            Hashtbl.replace reached child ();
            visit_correct child
          end)
        (Option.value ~default:[] (Hashtbl.find_opt children nid))
  in
  ignore visit;
  visit_correct t.src;
  reached

let check_forest t =
  let sys = Atum.system t.atum in
  let reached = reachable t in
  let missing =
    List.filter_map
      (fun (n : System.node) ->
        if
          n.System.alive && (not n.System.byzantine) && n.System.vg <> None
          && (not (Hashtbl.mem reached n.System.id))
        then Some n.System.id
        else None)
      (System.live_nodes sys)
  in
  match missing with
  | [] -> Ok ()
  | ms ->
    Error
      (Printf.sprintf "correct nodes unreachable from source: %s"
         (String.concat ", " (List.map string_of_int ms)))

type stream_stats = {
  per_node_latency : (node_id * float) list;
  mean_latency : float;
  max_latency : float;
  first_chunk_penalty : float;
  unreached : node_id list;
}

(* Steady-state per-chunk latency: Dijkstra from the source over
   parent->child edges restricted to correct relays.  Each hop costs
   one request round-trip plus the chunk transfer at the uplink rate. *)
let stream t ~chunk_mb =
  let sys = Atum.system t.atum in
  let host = Atum_sim.Bulk.ec2_micro in
  let hop = 0.02 +. (chunk_mb /. host.Atum_sim.Bulk.upload_mbps) in
  let probe_penalty = 0.25 in
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist t.src 0.0;
  let children = Hashtbl.create 64 in
  let add_edge parent child =
    let l = Option.value ~default:[] (Hashtbl.find_opt children parent) in
    Hashtbl.replace children parent (child :: l)
  in
  (* Steady-state data flows along primary parents; shortcuts are a
     fallback for liveness (check_forest), not the fast path. *)
  Hashtbl.iter (fun child ps -> List.iter (fun p -> add_edge p child) ps) t.primary;
  let q = Atum_util.Pqueue.create () in
  Atum_util.Pqueue.push q 0.0 t.src;
  let rec loop () =
    if not (Atum_util.Pqueue.is_empty q) then begin
      let d = Atum_util.Pqueue.min_prio q in
      let u = Atum_util.Pqueue.pop q in
      (match Hashtbl.find_opt dist u with
      | Some best when d > best +. 1e-12 -> () (* stale entry *)
      | _ ->
        if u = t.src || correct sys u then
          List.iter
            (fun child ->
              let nd = d +. hop in
              match Hashtbl.find_opt dist child with
              | Some best when best <= nd -> ()
              | _ ->
                Hashtbl.replace dist child nd;
                Atum_util.Pqueue.push q nd child)
            (Option.value ~default:[] (Hashtbl.find_opt children u)));
      loop ()
    end
  in
  loop ();
  let correct_nodes =
    List.filter_map
      (fun (n : System.node) ->
        if n.System.alive && (not n.System.byzantine) && n.System.vg <> None && n.System.id <> t.src
        then Some n.System.id
        else None)
      (System.live_nodes sys)
  in
  let per_node_latency =
    List.filter_map
      (fun nid ->
        match Hashtbl.find_opt dist nid with Some d -> Some (nid, d) | None -> None)
      correct_nodes
  in
  let unreached = List.filter (fun nid -> not (Hashtbl.mem dist nid)) correct_nodes in
  let lats = List.map snd per_node_latency in
  (* First-chunk probing: a node whose first-preference parent is not
     correct wastes one probe timeout before settling. *)
  let penalties =
    List.map
      (fun nid ->
        match parents t nid with
        | first :: _ when not (correct sys first || first = t.src) -> probe_penalty
        | _ -> 0.0)
      correct_nodes
  in
  {
    per_node_latency;
    mean_latency = Atum_util.Stats.mean lats;
    max_latency = List.fold_left Float.max 0.0 lats;
    first_chunk_penalty = Atum_util.Stats.mean penalties;
    unreached;
  }

type simulation_stats = {
  sim_per_node : (node_id * float) list;
  sim_mean_latency : float;
  sim_max_latency : float;
  parent_switches : int;
  sim_unreached : node_id list;
}

(* Event-driven push-pull (§4.3).  Chunk 1 is pushed along the forest;
   afterwards every child periodically pulls the next chunk from its
   sticky parent — the first parent that delivered a valid chunk — and
   probes the next candidate when the sticky parent goes quiet. *)
let simulate ?(chunks = 8) ?(rate_mb_per_s = 1.0) t ~chunk_mb =
  let sys = Atum.system t.atum in
  let engine = Atum_sim.Engine.create () in
  let host = Atum_sim.Bulk.ec2_micro in
  let hop = 0.02 +. (chunk_mb /. host.Atum_sim.Bulk.upload_mbps) in
  let pull_interval = 0.05 in
  let probe_timeout = 0.25 in
  let production_gap = chunk_mb /. rate_mb_per_s in
  (* have.(node).(chunk): time the node obtained the chunk, or nan *)
  let participants =
    t.src
    :: List.filter_map
         (fun (n : System.node) ->
           if n.System.vg <> None && n.System.alive && n.System.id <> t.src then
             Some n.System.id
           else None)
         (System.live_nodes sys)
  in
  let produced = Array.make chunks infinity in
  let have : (node_id, float array) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun nid -> Hashtbl.replace have nid (Array.make chunks infinity)) participants;
  let got nid chunk =
    match Hashtbl.find_opt have nid with
    | Some arr -> arr.(chunk) < infinity
    | None -> false
  in
  let serves nid chunk =
    (* the source serves what it has produced; a correct relay serves
       what it holds; Byzantine nodes never serve *)
    if nid = t.src then produced.(chunk) <= Atum_sim.Engine.now engine
    else correct sys nid && got nid chunk
  in
  let switches = ref 0 in
  let record nid chunk =
    match Hashtbl.find_opt have nid with
    | Some arr ->
      if arr.(chunk) = infinity then arr.(chunk) <- Atum_sim.Engine.now engine
    | None -> ()
  in
  (* Source production. *)
  for c = 0 to chunks - 1 do
    produced.(c) <- float_of_int c *. production_gap;
    match Hashtbl.find_opt have t.src with
    | Some arr -> arr.(c) <- produced.(c)
    | None -> ()
  done;
  (* Push phase: when the source has chunk 0, it pushes to children
     whose parent list contains it. *)
  let children_of p =
    List.filter (fun nid -> nid <> t.src && List.mem p (parents t nid)) participants
  in
  Atum_sim.Engine.schedule_at ~label:"astream.produce" engine ~time:produced.(0) (fun () ->
      List.iter
        (fun child ->
          Atum_sim.Engine.schedule ~label:"astream.hop" engine ~delay:hop (fun () -> record child 0))
        (children_of t.src));
  (* Correct relays also push chunk 0 onward when they receive it. *)
  let pushed = Hashtbl.create 64 in
  let rec push_loop () =
    (* poll for relays that can push chunk 0 to their children *)
    List.iter
      (fun nid ->
        if nid <> t.src && correct sys nid && got nid 0 && not (Hashtbl.mem pushed nid)
        then begin
          Hashtbl.replace pushed nid ();
          List.iter
            (fun child ->
              Atum_sim.Engine.schedule ~label:"astream.hop" engine ~delay:hop (fun () -> record child 0))
            (children_of nid)
        end)
      participants;
    Atum_sim.Engine.schedule ~label:"astream.push" engine ~delay:pull_interval push_loop
  in
  Atum_sim.Engine.schedule ~label:"astream.push" engine ~delay:pull_interval push_loop;
  (* Pull phase: each non-source node works through its parent list. *)
  let start_pulling nid =
    let my_parents = parents t nid @ shortcut_parents t nid in
    if my_parents <> [] then begin
      let parent_ix = ref 0 in
      let waiting_since = ref 0.0 in
      let next_chunk () =
        let arr = Hashtbl.find have nid in
        let rec scan c = if c >= chunks then None else if arr.(c) = infinity then Some c else scan (c + 1) in
        scan 0
      in
      let rec pull () =
        match next_chunk () with
        | None -> () (* done *)
        | Some c ->
          let parent = List.nth my_parents (!parent_ix mod List.length my_parents) in
          if serves parent c then begin
            waiting_since := Atum_sim.Engine.now engine;
            Atum_sim.Engine.schedule ~label:"astream.hop" engine ~delay:hop (fun () ->
                record nid c;
                pull ())
          end
          else begin
            if Atum_sim.Engine.now engine -. !waiting_since > probe_timeout then begin
              (* sticky parent is not serving: probe the next one *)
              incr parent_ix;
              incr switches;
              waiting_since := Atum_sim.Engine.now engine
            end;
            Atum_sim.Engine.schedule ~label:"astream.pull" engine ~delay:pull_interval pull
          end
      in
      Atum_sim.Engine.schedule ~label:"astream.pull" engine ~delay:pull_interval pull
    end
  in
  List.iter (fun nid -> if nid <> t.src then start_pulling nid) participants;
  let horizon = (float_of_int chunks *. production_gap) +. 60.0 in
  Atum_sim.Engine.run ~until:horizon engine;
  (* Steady-state latency per correct node: mean over chunks of
     (delivery - production), ignoring chunk 0's push/probe warmup. *)
  let correct_nodes =
    List.filter (fun nid -> nid <> t.src && correct sys nid) participants
  in
  let per_node =
    List.filter_map
      (fun nid ->
        let arr = Hashtbl.find have nid in
        let lats =
          List.filter_map
            (fun c -> if arr.(c) < infinity then Some (arr.(c) -. produced.(c)) else None)
            (List.init (chunks - 1) (fun i -> i + 1))
        in
        if lats = [] then None else Some (nid, Atum_util.Stats.mean lats))
      correct_nodes
  in
  let complete nid =
    let arr = Hashtbl.find have nid in
    Array.for_all (fun v -> v < infinity) arr
  in
  {
    sim_per_node = per_node;
    sim_mean_latency = Atum_util.Stats.mean (List.map snd per_node);
    sim_max_latency = List.fold_left (fun acc (_, l) -> Float.max acc l) 0.0 per_node;
    parent_switches = !switches;
    sim_unreached = List.filter (fun nid -> not (complete nid)) correct_nodes;
  }
