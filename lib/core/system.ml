(* The Atum runtime: volatile groups over a simulated network.

   The registry ([Registry]) holds the ground truth and the shared
   state; each vgroup's SMR ([Agreement]) decides every change to it.
   This module builds the protocols on top: group messages and random
   walks, the split / merge / shuffle / join / leave sagas, gossip,
   heartbeats, the active Byzantine drivers and durable recovery, all
   simulated at per-node message granularity. *)

include Registry
include Agreement

(* ------------------------------------------------------------------ *)
(* Group messages                                                      *)
(* ------------------------------------------------------------------ *)

let control_bytes label = 64 + String.length label

(* A group message src -> dst: every correct member of src sends to
   every member of dst.  Digest substitution (§5.1): only a majority of
   the senders ship the full payload, the rest send a digest — modelled
   in the byte accounting.  [k], if given, fires once, when a majority
   of dst's members have individually accepted (i.e. the vgroup as an
   entity has received the group message). *)
let group_send t ~src_vg ~dst_vg ~label ?size ?k ?on_fail () =
  match (vgroup_opt t src_vg, vgroup_opt t dst_vg) with
  | Some src, Some dst when (not src.retired) && not dst.retired ->
    (* Acceptance needs no id, but walk ids share the sequence. *)
    ignore (fresh_gm_id t : int);
    let gm =
      Option.map
        (fun k -> { needed = majority_of dst.roster.size; k; accepts = 0 })
        k
    in
    let senders = correct_members t src in
    let roster = src.roster in
    let full_senders = majority_of roster.size in
    let base_size = match size with Some s -> s | None -> control_bytes label in
    Metrics.incr t.metrics "gm.sent";
    defer t (fun () ->
        (* One part per destination, shared by every sender; without
           a continuation acceptance is unobservable, so no rows. *)
        let part row = Group_part { src_vg; roster; payload = Control { label; row } } in
        let parts =
          match gm with
          | Some gm ->
            List.map (fun d -> (d, part (Some { gm; senders = tally roster }))) (members dst)
          | None ->
            let shared = part None in
            List.map (fun d -> (d, shared)) (members dst)
        in
        List.iteri
          (fun i s ->
            let bytes = if i < full_senders then base_size else 32 in
            List.iter (fun (d, p) -> Network.send ~size:bytes t.net ~src:s ~dst:d p) parts)
          senders)
  | _ ->
    Metrics.incr t.metrics "gm.undeliverable";
    (* The destination vanished (merged away) before we could talk to
       it; tell the caller so sagas can recover instead of stalling. *)
    (match on_fail with Some f -> f () | None -> ())

let direct_send t ~src ~dst ~label ?(k = ignore) () =
  Metrics.incr t.metrics "direct.sent";
  defer t (fun () -> Network.send ~size:(control_bytes label) t.net ~src ~dst (Direct { label; k }))

(* ------------------------------------------------------------------ *)
(* Distributed random walks (§3.2, §5.1)                               *)
(* ------------------------------------------------------------------ *)

(* The forwarding vgroup certifies each hop: the identity of the
   chosen neighbor, signed on behalf of the vgroup (by its first
   correct member, standing in for a vgroup multi-signature).  The
   selected vgroup returns the whole chain to the origin, which
   verifies every link — so a Byzantine relay cannot teleport the walk
   (§5.1, "random walk certificates"). *)
let certificate t ~walk_id ~hop ~from_vg ~next =
  match vgroup_opt t from_vg with
  | Some vg when not vg.retired ->
    Option.map
      (fun signer ->
        let payload = Printf.sprintf "walk:%d/hop:%d/%d->%d" walk_id hop from_vg next in
        (Atum_crypto.Signature.sign t.keyring ~signer:(node_name signer) payload, payload))
      (first_correct t vg)
  | _ -> None

let verify_certificates t chain =
  List.for_all
    (fun (signature, payload) -> Atum_crypto.Signature.verify t.keyring signature ~msg:payload)
    chain

(* Bulk RNG: all hop choices are drawn by the initiating vgroup and
   piggybacked on the walk (§5.1).  Each hop is one group message.
   Termination: backward phase for Sync (the reply retraces the path),
   certificate chain for Async (one reply carrying per-hop vgroup
   certificates, verified by the origin). *)
let start_walk ?parent t ~from_vg ~k =
  let choices = Random_walk.bulk_choices t.rng ~length:t.params.rwl in
  let walk_id = fresh_gm_id t in
  Metrics.incr t.metrics "walk.started";
  let span = span_begin t ~saga:"walk" ~vgroup:from_vg ?parent () in
  let rec forward v path certs = function
    | [] -> terminate v path certs
    | c :: rest ->
      if not (Hgraph.mem t.hgraph v) then begin
        Metrics.incr t.metrics "walk.lost";
        restart ()
      end
      else begin
        let links = Hgraph.neighbors t.hgraph v in
        let _, next = List.nth links (Random_walk.choice_index ~degree:(List.length links) c) in
        let certs =
          if t.params.protocol = Params.Async then
            match certificate t ~walk_id ~hop:(List.length path) ~from_vg:v ~next with
            | Some cert -> cert :: certs
            | None -> certs
          else certs
        in
        group_send t ~src_vg:v ~dst_vg:next ~label:"walk-step"
          ~size:(96 + (8 * List.length rest))
          ~k:(fun () -> forward next (v :: path) certs rest)
          ~on_fail:(fun () ->
            Metrics.incr t.metrics "walk.lost";
            restart ())
          ()
      end
  and terminate v path certs =
    match t.params.protocol with
    | Params.Async ->
      (* One reply carrying the certificate chain; its size is linear
         in rwl, and the origin verifies every signature. *)
      group_send t ~src_vg:v ~dst_vg:from_vg ~label:"walk-cert"
        ~size:(64 + (80 * List.length certs))
        ~k:(fun () ->
          if verify_certificates t certs then finish v
          else begin
            Metrics.incr t.metrics "walk.cert_rejected";
            restart ()
          end)
        ~on_fail:(fun () ->
          Metrics.incr t.metrics "walk.lost";
          restart ())
        ()
    | Params.Sync ->
      ignore certs;
      (* Backward phase: retrace the forwarding path, so the origin
         learns the selected vgroup and they can talk directly. *)
      let final = v in
      let rec back_from v path =
        match path with
        | [] -> finish final
        | prev :: rest ->
          group_send t ~src_vg:v ~dst_vg:prev ~label:"walk-back"
            ~k:(fun () -> back_from prev rest)
            ~on_fail:(fun () ->
              (* a relay on the return path vanished: the origin would
                 time out and re-issue the walk *)
              Metrics.incr t.metrics "walk.lost";
              restart ())
            ()
      in
      back_from v path
  and finish v =
    match vgroup_opt t v with
    | Some dst when not dst.retired ->
      Metrics.incr t.metrics "walk.completed";
      trace_emit t ~kind:"walk.completed" ~vgroup:v ();
      span_end t ~saga:"walk" ~vgroup:v span;
      k v
    | _ ->
      Metrics.incr t.metrics "walk.lost";
      restart ()
  and restart () =
    (* The walk stepped onto a vgroup that was merged away mid-walk;
       start over from the origin, unless the origin itself is gone. *)
    match vgroup_opt t from_vg with
    | Some src when not src.retired ->
      Engine.schedule ~label:"walk.restart" t.engine ~delay:0.01 (fun () ->
          let choices = Random_walk.bulk_choices t.rng ~length:t.params.rwl in
          forward from_vg [] [] choices)
    | _ ->
      Metrics.incr t.metrics "walk.abandoned";
      span_end t ~saga:"walk" ~vgroup:from_vg span
  in
  forward from_vg [] [] choices

(* ------------------------------------------------------------------ *)
(* Registry mutations (applied only from agreed operations)            *)
(* ------------------------------------------------------------------ *)

let notify_neighbors t vg =
  if Hgraph.mem t.hgraph vg.vid then begin
    let neighbors = List.filter (fun v -> v <> vg.vid) (Hgraph.neighbor_set t.hgraph vg.vid) in
    List.iter
      (fun nb ->
        group_send t ~src_vg:vg.vid ~dst_vg:nb ~label:"reconfig"
          ~size:(64 * size vg)
          ())
      neighbors
  end

let seed_last_seen t vg member =
  List.iter
    (fun peer -> if peer <> member then begin
        Hashtbl.replace t.last_seen (member, peer) (now t);
        if Atum_util.Arena.mem t.nodes peer then
          Hashtbl.replace t.last_seen (peer, member) (now t)
      end)
    (members vg)

let add_member t vg member =
  set_members t vg (members vg @ [ member ]);
  set_node_vg t (node t member) (Some vg.vid);
  seed_last_seen t vg member;
  reconfigure t vg;
  notify_neighbors t vg

let remove_member t vg member =
  set_members t vg (List.filter (fun m -> m <> member) (members vg));
  let n = node t member in
  if Option.equal Int.equal n.vg (Some vg.vid) then set_node_vg t n None;
  reconfigure t vg;
  notify_neighbors t vg

(* ------------------------------------------------------------------ *)
(* Logarithmic grouping: split and merge (§3.1, §3.3)                  *)
(* ------------------------------------------------------------------ *)

(* Size maintenance runs after shuffles; forward declarations tie the
   shuffle / split / merge recursion. *)
let rec check_size t vg =
  if (not vg.retired) && not vg.busy then begin
    let size = size vg in
    if Grouping.needs_split ~gmax:t.params.gmax ~size then split t vg
    else if Grouping.needs_merge ~gmin:t.params.gmin ~size && vgroup_count t > 1 then
      merge t vg ~attempts:5
  end

(* A split's placement walks can be lost; if the new vgroup is still
   absent from some cycles, splice it next to a random resident of
   each missing cycle (the coordinator retrying with local knowledge).
   Without this a half-inserted vgroup would be unreachable by gossip
   restricted to the missing cycles — and a vgroup whose walks were
   ALL lost (e.g. every placement walk crossed a partition) would be
   invisible to gossip entirely, so the repair must also cover the
   not-yet-inserted case. *)
and ensure_on_all_cycles t vg =
  if not vg.retired then begin
    if not (Hgraph.mem t.hgraph vg.vid) then
      Metrics.incr t.metrics "split.insert_recovered";
    for cycle = 0 to t.params.hc - 1 do
      if Hgraph.successor_opt t.hgraph ~cycle vg.vid = None then begin
        let residents =
          List.filter
            (fun v ->
              v <> vg.vid && Hgraph.successor_opt t.hgraph ~cycle v <> None)
            (Hgraph.vertices t.hgraph)
        in
        match residents with
        | [] -> ()
        | _ ->
          Metrics.incr t.metrics "split.insert_repaired";
          Hgraph.insert_after t.hgraph ~cycle ~after:(Rng.pick t.rng residents) vg.vid
      end
    done
  end

(* A saga can stall when a participant vgroup vanishes mid-protocol (a
   group message becomes undeliverable, an agreement's vgroup retires).
   Real deployments recover with timeouts; so do we: if the vgroup is
   still held by the same saga after the deadline, release it, repair
   any half-done overlay insertion, and re-run the size check so
   splits/merges are never blocked forever. *)
and arm_saga_watchdog t vg =
  vg.saga_gen <- vg.saga_gen + 1;
  let gen = vg.saga_gen in
  let timeout =
    Float.max 90.0 (float_of_int (6 * t.params.rwl) *. t.params.round_duration)
  in
  Engine.schedule ~label:"saga.watchdog" t.engine ~delay:timeout (fun () ->
      if (not vg.retired) && vg.busy && vg.saga_gen = gen then begin
        Metrics.incr t.metrics "saga.timeout";
        ensure_on_all_cycles t vg;
        vg.busy <- false;
        let rerun = vg.shuffle_pending in
        vg.shuffle_pending <- false;
        if rerun then shuffle t vg else check_size t vg
      end)

(* Split (§3.3.2): the members are divided into two random halves; the
   new vgroup is spliced into every H-graph cycle at a position chosen
   by a random walk. *)
and split t vg =
  if (not vg.retired) && not vg.busy then begin
    vg.busy <- true;
    arm_saga_watchdog t vg;
    let span = span_begin t ~saga:"split" ~vgroup:vg.vid () in
    agree t vg ~parent:span "split" (fun () ->
        if vg.retired then begin
          vg.busy <- false;
          span_end t ~saga:"split" ~vgroup:vg.vid span
        end
        else begin
          Metrics.incr t.metrics "vgroup.split";
          trace_emit t ~kind:"vgroup.split" ~vgroup:vg.vid ();
          let keep, depart = Grouping.split_halves t.rng (members vg) in
          let e = add_vgroup t ~members:depart ~busy:true in
          let evid = e.vid in
          arm_saga_watchdog t e;
          set_members t vg keep;
          List.iter (fun m -> set_node_vg t (node t m) (Some evid)) depart;
          reconfigure t vg;
          reconfigure t e;
          (* One walk per cycle decides where E lands on that cycle. *)
          let remaining = ref t.params.hc in
          for cycle = 0 to t.params.hc - 1 do
            start_walk t ~parent:span ~from_vg:vg.vid ~k:(fun w ->
                (* The walk can come back late (restarted across a
                   partition) after the saga watchdog already repaired
                   the insertion, and its anchor can have left the
                   cycle mid-flight — so only insert when E is still
                   missing from this cycle and the anchor is on it,
                   falling back to the splitting vgroup, then to the
                   repair pass. *)
                (if Hgraph.successor_opt t.hgraph ~cycle evid = None then
                   let on_cycle v = Hgraph.successor_opt t.hgraph ~cycle v <> None in
                   let anchor = if w <> evid && on_cycle w then w else vg.vid in
                   if on_cycle anchor then
                     Hgraph.insert_after t.hgraph ~cycle ~after:anchor evid);
                decr remaining;
                if !remaining = 0 then begin
                  ensure_on_all_cycles t e;
                  notify_neighbors t e;
                  e.busy <- false;
                  vg.busy <- false;
                  span_end t ~saga:"split" ~vgroup:vg.vid span;
                  check_size t vg;
                  check_size t e
                end)
          done
        end)
  end

(* Merge (§3.3.3): all members of a shrunken vgroup join a random
   neighbor; the departing vgroup is removed from every cycle and the
   gaps close.  The combined vgroup then shuffles, per the paper. *)
and merge t vg ~attempts =
  if (not vg.retired) && (not vg.busy) && vgroup_count t > 1 then begin
    let candidates =
      List.filter
        (fun v ->
          v <> vg.vid
          &&
          match vgroup_opt t v with
          | Some m -> (not m.retired) && not m.busy
          | None -> false)
        (Hgraph.neighbor_set t.hgraph vg.vid)
    in
    match candidates with
    | [] ->
      if attempts > 0 then
        Engine.schedule ~label:"merge.retry" t.engine ~delay:(2.0 *. t.params.round_duration) (fun () ->
            merge t vg ~attempts:(attempts - 1))
      else Metrics.incr t.metrics "merge.abandoned"
    | _ ->
      let mvid = Rng.pick t.rng candidates in
      let m = vgroup t mvid in
      vg.busy <- true;
      m.busy <- true;
      arm_saga_watchdog t vg;
      arm_saga_watchdog t m;
      let span = span_begin t ~saga:"merge" ~vgroup:vg.vid () in
      agree t vg ~parent:span "merge-out" (fun () ->
          agree t m ~parent:span "merge-in" (fun () ->
              if vg.retired || m.retired then begin
                vg.busy <- false;
                m.busy <- false;
                span_end t ~saga:"merge" ~vgroup:vg.vid span
              end
              else begin
                Metrics.incr t.metrics "vgroup.merge";
                trace_emit t ~kind:"vgroup.merge" ~vgroup:mvid ();
                let moving = members vg in
                Hgraph.remove t.hgraph vg.vid;
                retire_vgroup t vg;
                set_members t vg [];
                stop_smr vg;
                List.iter (fun x -> set_node_vg t (node t x) (Some mvid)) moving;
                set_members t m (members m @ moving);
                List.iter (fun x -> seed_last_seen t m x) moving;
                reconfigure t m;
                notify_neighbors t m;
                vg.busy <- false;
                m.busy <- false;
                span_end t ~saga:"merge" ~vgroup:mvid span;
                (* Deferred shuffle of the merged vgroup (§3.3.3). *)
                shuffle t m
              end))
  end

(* ------------------------------------------------------------------ *)
(* Random walk shuffling (§3.2)                                        *)
(* ------------------------------------------------------------------ *)

(* Refresh a vgroup's composition: for every member, a random walk
   picks an exchange partner vgroup; the member and a random node of
   the partner swap places.  An exchange whose partner vgroup is
   already engaged is suppressed — exactly what Fig 13 measures. *)
and shuffle t vg =
  if vg.retired || not t.shuffling_enabled then (if not vg.retired then check_size t vg)
  else if vg.busy then vg.shuffle_pending <- true
  else begin
    vg.busy <- true;
    arm_saga_watchdog t vg;
    Metrics.incr t.metrics "shuffle.started";
    let span = span_begin t ~saga:"shuffle" ~vgroup:vg.vid () in
    let members0 = members vg in
    let remaining = ref (size vg) in
    let finish_one () =
      decr remaining;
      if !remaining = 0 then begin
        vg.busy <- false;
        Metrics.incr t.metrics "shuffle.completed";
        span_end t ~saga:"shuffle" ~vgroup:vg.vid span;
        let rerun = vg.shuffle_pending in
        vg.shuffle_pending <- false;
        if rerun then shuffle t vg else check_size t vg
      end
    in
    if members0 = [] then begin
      vg.busy <- false;
      span_end t ~saga:"shuffle" ~vgroup:vg.vid span;
      check_size t vg
    end
    else
      List.iter
        (fun m ->
          start_walk t ~parent:span ~from_vg:vg.vid ~k:(fun pvid ->
              (* Suppression is per node (§3.2 / Fig 13): the exchange
                 is abandoned when the chosen partner (or the departing
                 member) is already engaged in another exchange, or the
                 partner vgroup is gone / mid-split/merge. *)
              match vgroup_opt t pvid with
              | Some p
                when (not p.retired) && p.vid <> vg.vid
                     && has_member vg m && size p > 0
                     && not (node t m).exchanging ->
                let partner = Rng.pick t.rng (members p) in
                if (node t partner).exchanging then begin
                  Metrics.incr t.metrics "exchange.suppressed";
                  finish_one ()
                end
                else begin
                  (node t m).exchanging <- true;
                  (node t partner).exchanging <- true;
                  let release () =
                    (node t m).exchanging <- false;
                    (node t partner).exchanging <- false
                  in
                  (* The two vgroups agree concurrently (§7: multiple
                     vgroups reconfigure at once); the swap applies
                     when both agreements have fired. *)
                  let barrier = ref 2 in
                  let on_agreed k = decr barrier; if !barrier = 0 then k () in
                  let proceed () =
                          if
                            vg.retired || p.retired
                            || (not (has_member vg m))
                            || not (has_member p partner)
                          then begin
                            release ();
                            Metrics.incr t.metrics "exchange.suppressed";
                            finish_one ()
                          end
                          else begin
                            (* Swap m and partner. *)
                            set_members t vg
                              (List.map (fun x -> if x = m then partner else x) (members vg));
                            set_members t p
                              (List.map (fun x -> if x = partner then m else x) (members p));
                            set_node_vg t (node t m) (Some p.vid);
                            set_node_vg t (node t partner) (Some vg.vid);
                            seed_last_seen t vg partner;
                            seed_last_seen t p m;
                            reconfigure t vg;
                            reconfigure t p;
                            notify_neighbors t vg;
                            notify_neighbors t p;
                            release ();
                            Metrics.incr t.metrics "exchange.completed";
                            finish_one ()
                          end
                  in
                  agree t vg ~parent:span ("swap-out:" ^ string_of_int m) (fun () ->
                      on_agreed proceed);
                  agree t p ~parent:span ("swap-in:" ^ string_of_int partner) (fun () ->
                      on_agreed proceed)
                end
              | _ ->
                Metrics.incr t.metrics "exchange.suppressed";
                finish_one ()))
        members0
  end

(* ------------------------------------------------------------------ *)
(* Join, leave, eviction (§3.3)                                        *)
(* ------------------------------------------------------------------ *)

(* Join (§3.3.2): contact node -> agreement at the contact vgroup ->
   random walk selects the hosting vgroup D -> D agrees to add the
   joiner -> shuffle D -> split if oversized. *)
let join t ~joiner ~contact ?(k = fun _ -> ()) () =
  let j = node t joiner in
  if j.vg <> None then invalid_arg "System.join: node already in the system";
  let t0 = now t in
  Metrics.incr t.metrics "join.requested";
  trace_emit t ~kind:"join.requested" ~node:joiner ~peer:contact ();
  match Option.bind (node_opt t contact) (fun c -> c.vg) with
  | None -> invalid_arg "System.join: contact node not in the system"
  | Some cvid ->
    let span = span_begin t ~saga:"join" ~node:joiner () in
    let fail () =
      Metrics.incr t.metrics "join.failed";
      span_end t ~saga:"join" ~node:joiner span
    in
    direct_send t ~src:joiner ~dst:contact ~label:"join-contact"
      ~k:(fun () ->
        direct_send t ~src:contact ~dst:joiner ~label:"contact-reply"
          ~k:(fun () ->
            match vgroup_opt t cvid with
            | Some c when not c.retired ->
              (* The joiner asks all of C; C agrees on handling it. *)
              agree t c ~parent:span ("join:" ^ string_of_int joiner) (fun () ->
                  start_walk t ~parent:span ~from_vg:c.vid ~k:(fun dvid ->
                      match vgroup_opt t dvid with
                      | Some _ ->
                        (* C tells j the composition of D; j contacts D. *)
                        direct_send t ~src:(List.hd (members c)) ~dst:joiner
                          ~label:"join-assign"
                          ~k:(fun () ->
                            match vgroup_opt t dvid with
                            | Some d when (not d.retired) && j.alive ->
                              agree t d ~parent:span ("add:" ^ string_of_int joiner)
                                (fun () ->
                                  if d.retired || not j.alive then fail ()
                                  else begin
                                    add_member t d joiner;
                                    Metrics.incr t.metrics "join.completed";
                                    trace_emit t ~kind:"join.completed" ~node:joiner
                                      ~vgroup:d.vid ();
                                    Atum_sim.Metrics.observe t.metrics "join.latency"
                                      (now t -. t0);
                                    span_end t ~saga:"join" ~node:joiner ~vgroup:d.vid span;
                                    k d.vid;
                                    shuffle t d
                                  end)
                            | _ -> fail ())
                          ()
                      | None -> fail ()))
            | _ -> fail ())
          ())
      ()

(* Return a departed node's dense id to the arena free list so the
   next spawn reuses it.  Stale liveness entries and partial gossip
   votes are purged: a recycled id must inherit neither its
   predecessor's heartbeat history nor its votes.  Opt-in
   ([set_id_recycling]) because strategies that re-join under the
   same id (Join_leave_attack) need the record to survive its
   departure. *)
let release_node t nid =
  match node_opt t nid with
  | None -> ()
  | Some n ->
    if Option.is_some n.vg then invalid_arg "System.release_node: node still in a vgroup";
    if is_live n then invalid_arg "System.release_node: node still live";
    let stale =
      Hashtbl.fold
        (fun ((a, b) as key) _ acc -> if a = nid || b = nid then key :: acc else acc)
        t.last_seen []
    in
    List.iter (Hashtbl.remove t.last_seen) stale;
    Pair_tbl.filter_map_inplace
      (fun key votes -> if key lsr 31 = nid then None else Some votes)
      t.bcast_votes;
    Network.unregister t.net nid;
    Atum_util.Arena.release t.nodes nid

let set_id_recycling t on = t.recycle_ids <- on

(* Leave (§3.3.3): agreement at the leaver's vgroup, neighbor
   notification, then merge (if undersized) or shuffle.

   The agreement can be swallowed: if the vgroup retires mid-saga (a
   concurrent merge moves its members to the partner), pending ops die
   with it while the mover keeps its membership.  A watchdog re-issues
   the departure against the node's current vgroup until the registry
   actually drops it. *)
let rec depart t ~target ~reason ?(k = fun () -> ()) () =
  let n = node t target in
  match n.vg with
  | None -> k ()
  | Some vid ->
    (match vgroup_opt t vid with
    | Some vg when not vg.retired ->
      let saga = if reason = "evicted" then "evict" else reason in
      let span = span_begin t ~saga ~node:target ~vgroup:vid () in
      let fired = ref false in
      let k () =
        if not !fired then begin
          fired := true;
          k ()
        end
      in
      Engine.schedule ~label:"depart.watchdog" t.engine
        ~delay:(Float.max 10.0 (20.0 *. t.params.round_duration))
        (fun () ->
          if (not !fired) && n.alive && Option.is_some n.vg then
            depart t ~target ~reason ~k ());
      agree t vg ~parent:span (reason ^ ":" ^ string_of_int target) (fun () ->
          if vg.retired || not (has_member vg target) then begin
            span_end t ~saga ~node:target span;
            (* If the node is genuinely gone we are done; if it moved
               to another vgroup mid-saga, the watchdog re-issues. *)
            if Option.is_none n.vg then k ()
          end
          else begin
            remove_member t vg target;
            Metrics.incr t.metrics ("node." ^ reason);
            span_end t ~saga ~node:target ~vgroup:vid span;
            k ();
            if t.recycle_ids && Option.is_none n.vg then release_node t target;
            if size vg = 0 then begin
              (* Last member gone: retire the vgroup entirely. *)
              if vgroup_count t > 1 then Hgraph.remove t.hgraph vg.vid;
              retire_vgroup t vg;
              stop_smr vg
            end
            else if
              Grouping.needs_merge ~gmin:t.params.gmin ~size:(size vg)
              && vgroup_count t > 1
            then merge t vg ~attempts:5 (* shuffle deferred until after merge *)
            else shuffle t vg
          end)
    | _ -> k ())

let leave t ~target ?k () = depart t ~target ~reason:"leave" ?k ()

let evict t ~target ?k () =
  Metrics.incr t.metrics "eviction.triggered";
  trace_emit t ~kind:"eviction.triggered" ~node:target ();
  depart t ~target ~reason:"evicted" ?k ()

(* ------------------------------------------------------------------ *)
(* Broadcast (§3.3.4)                                                  *)
(* ------------------------------------------------------------------ *)

(* The vgroup's gossip view: its neighbors annotated with the
   (deduped, ascending) cycles linking to them, sorted by neighbor
   id.  Cached against the overlay generation, so the sort runs once
   per topology change instead of once per delivery — the per-saga
   hoist of the old per-delivery [chosen] table sort. *)
let gossip_view t vg =
  let gen = Hgraph.generation t.hgraph in
  if vg.nbrs_gen <> gen then begin
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (cycle, nb) ->
        if nb <> vg.vid then
          match Hashtbl.find_opt tbl nb with
          | Some cs -> cs := cycle :: !cs
          | None -> Hashtbl.replace tbl nb (ref [ cycle ]))
      (Hgraph.neighbors t.hgraph vg.vid);
    vg.nbrs <-
      List.map
        (fun (nb, cs) -> (nb, List.sort_uniq Int.compare !cs))
        (Atum_util.Hashtbl_ext.sorted_bindings ~cmp:Int.compare tbl);
    vg.nbrs_gen <- gen;
    vg.fwd_bid <- -1;
    Metrics.incr t.metrics "gossip.view.rebuilt"
  end;
  vg.nbrs

(* One target per selected neighbor, tagged with the lowest cycle
   that selected it, sorted by neighbor id.  The forward callback is
   deterministic in its arguments, so the decision is taken once per
   (vgroup, broadcast) and memoised for the members that follow. *)
let gossip_targets t vg ~bid =
  let nbrs = gossip_view t vg in
  if vg.fwd_bid <> bid then begin
    let vid = vg.vid in
    vg.fwd_targets <-
      List.filter_map
        (fun (nb, cycles) ->
          let rec first = function
            | [] -> None
            | c :: rest ->
              if t.forward_policy ~bid ~from_vg:vid ~cycle:c ~neighbor:nb then Some (nb, c)
              else first rest
          in
          first cycles)
        nbrs;
    vg.fwd_bid <- bid
  end;
  vg.fwd_targets

(* A receiver on which a part of broadcast [bid] has no effect: it is
   gone, down, or has already delivered [bid] (a Byzantine node uses
   [delivered] as its once-per-bid marker).  These are [handle_wire]'s
   early-outs for a [Bcast] part, and no handler a part can trigger
   revives a node or clears a delivered bit, so they are settled
   columns of the round's [send_group]: most cells of a gossip round
   reach a node that delivered from an earlier vgroup. *)
let settled_for t ~bid d =
  match node_opt t d with
  | None -> true
  | Some n -> (not n.alive) || Atum_util.Bitset.mem n.delivered bid

(* Drain the per-instant fan-out buffer: one [send_group] per part,
   in the order the parts were created.  The rounds are closed before
   sending, so deliveries triggered later at this timestamp open new
   ones. *)
let flush_fanout t =
  let parts = List.rev t.fanout in
  t.fanout <- [];
  t.fanout_scheduled <- false;
  List.iter
    (fun p ->
      let r = p.f_round in
      if r.r_open then begin
        r.r_open <- false;
        Pair_tbl.remove t.fanout_rounds (pair_key r.r_src_vg r.r_bid);
        if not r.r_split then r.r_srcs <- List.rev r.r_srcs
      end)
    parts;
  List.iter
    (fun p ->
      match vgroup_opt t p.f_dst with
      | Some nbg when not nbg.retired ->
        let r = p.f_round in
        let bid = r.r_bid in
        Network.send_group t.net ~settled:(fun d -> settled_for t ~bid d)
          ~srcs:(if r.r_split then List.rev p.f_srcs else r.r_srcs)
          ~dsts:(members nbg)
          (Group_part
             { src_vg = r.r_src_vg; roster = p.f_roster;
               payload = Bcast { bid; origin = p.f_origin; body = p.f_body; cycle = p.f_cycle } })
      | _ -> ())
    parts

let find_round t vg ~bid =
  match vg with
  | Some vid -> Pair_tbl.find_opt t.fanout_rounds (pair_key vid bid)
  | None -> None

let add_part t r ~dst ~roster ~origin ~body ~cycle srcs =
  let p =
    { f_round = r; f_dst = dst; f_roster = roster; f_origin = origin; f_body = body;
      f_cycle = cycle; f_srcs = srcs }
  in
  r.r_parts <- p :: r.r_parts;
  t.fanout <- p :: t.fanout

let rec same_dsts a b =
  match (a, b) with
  | [], [] -> true
  | (x, _) :: a, (y, _) :: b -> Int.equal x y && same_dsts a b
  | _ -> false

(* Member [sender] of vgroup [vg] gossips [bid] to [targets] (not
   empty) in this instant's round, opening it if it is the first. *)
let queue_fanout t round (vg : vgroup) ~meta ~targets ~bid ~origin ~body sender =
  let roster = vg.roster in
  (match round with
  | None ->
    let r =
      { r_src_vg = vg.vid; r_bid = bid; r_meta = meta; r_targets = targets; r_parts = [];
        r_srcs = [ sender ]; r_split = false; r_open = true }
    in
    List.iter (fun (nb, cycle) -> add_part t r ~dst:nb ~roster ~origin ~body ~cycle []) targets;
    Pair_tbl.replace t.fanout_rounds (pair_key vg.vid bid) r
  | Some r ->
    if (not r.r_split) && (targets == r.r_targets || same_dsts targets r.r_targets) then
      r.r_srcs <- sender :: r.r_srcs
    else begin
      if not r.r_split then begin
        r.r_split <- true;
        List.iter (fun p -> p.f_srcs <- r.r_srcs) r.r_parts
      end;
      List.iter
        (fun (nb, cycle) ->
          match List.find_opt (fun p -> p.f_dst = nb) r.r_parts with
          | Some p -> p.f_srcs <- sender :: p.f_srcs
          | None -> add_part t r ~dst:nb ~roster ~origin ~body ~cycle [ sender ])
        targets
    end);
  if not t.fanout_scheduled then begin
    t.fanout_scheduled <- true;
    Engine.schedule ~label:"system.fanout" t.engine ~delay:0.0 (fun () -> flush_fanout t)
  end

(* A delivery's WAL record names no node, so every member that logs
   one broadcast logs the same frame: it is built once and kept with
   the broadcast.  It is reused only for the origin and body the
   broadcast was issued with; a member handed anything else (an
   equivocated body) logs a frame of its own. *)
let deliver_frame store meta ~bid ~origin ~body =
  let build () =
    Replica.frame store
      (Json.Obj
         [
           ("t", Json.String "deliver");
           ("bid", Json.Int bid);
           ("origin", Json.Int origin);
           ("body", Json.String body);
         ])
  in
  match meta with
  | Some m when m.b_origin = origin && String.equal m.b_body body -> (
    match m.b_frame with
    | Some f -> f
    | None ->
      let f = build () in
      m.b_frame <- Some f;
      f)
  | Some _ | None -> build ()

(* Per-node delivery: log it, record latency, hand it to the
   application, then gossip it to the neighbor vgroups the forward
   callback selects ([random_forward] by default). *)
let node_deliver t nid ~bid ~origin ~body =
  let n = node t nid in
  if (not (Atum_util.Bitset.mem n.delivered bid)) && is_correct n then begin
    Atum_util.Bitset.set n.delivered bid;
    (* Whichever path delivers (gossip, the vgroup's own SMR, restart
       catch-up), the partial gossip votes for [bid] are dead now. *)
    Pair_tbl.remove t.bcast_votes (pair_key nid bid);
    (* A member that joins an open round finds the broadcast's
       metadata there. *)
    let round = find_round t n.vg ~bid in
    let meta =
      match round with
      | Some { r_meta = Some _ as meta; _ } -> meta
      | _ -> Hashtbl.find_opt t.bcasts bid
    in
    audit t (Audit_deliver { node = nid; bid; body });
    (* The WAL record goes first; a snapshot it makes due waits until
       the application has applied the delivery, so a snapshot never
       marks a broadcast delivered whose effect it lacks. *)
    (match t.store with
    | Some store -> Replica.append store ~node:nid (deliver_frame store meta ~bid ~origin ~body)
    | None -> ());
    (match meta with
    | Some meta ->
      Atum_sim.Metrics.observe t.metrics "broadcast.latency" (now t -. meta.started)
    | None -> ());
    Metrics.incr t.metrics "broadcast.delivered";
    if Trace.enabled t.trace then
      trace_emit t ~kind:"broadcast.delivered" ~node:nid ~peer:origin ~bid ();
    t.on_deliver nid ~bid ~origin body;
    snapshot_if_due t n;
    match n.vg with
    | None -> ()
    | Some vid ->
      if Hgraph.mem t.hgraph vid then begin
        let vg = vgroup t vid in
        match gossip_targets t vg ~bid with
        | [] -> ()
        | targets ->
          (* The application ran in between: find the round again
             unless the one found above is still this vgroup's. *)
          let round =
            match round with
            | Some r when r.r_open && r.r_src_vg = vid -> round
            | _ -> find_round t n.vg ~bid
          in
          let full = rank vg.roster nid < majority_of (size vg) in
          let bytes = if full then 64 + String.length body else 32 in
          queue_fanout t round vg ~meta ~targets ~bid ~origin ~body (nid, bytes)
      end
  end

(* Each system hands the broadcasts its vgroups' SMR executes to its
   own gossip layer. *)
let create ?net_config ?trace_capacity params =
  let t = create ?net_config ?trace_capacity params in
  t.deliver_agreed <- (fun nid ~bid ~origin ~body -> node_deliver t nid ~bid ~origin ~body);
  t

(* Broadcast entry point: phase one is a Byzantine broadcast inside
   the caller's vgroup through SMR; phase two is the gossip above. *)
let broadcast t ~from body =
  let n = node t from in
  match n.vg with
  | None -> invalid_arg "System.broadcast: node not in the system"
  | Some vid ->
    let bid = t.next_bid in
    t.next_bid <- bid + 1;
    Hashtbl.replace t.bcasts bid
      { started = now t; b_origin = from; b_body = body; b_frame = None };
    Metrics.incr t.metrics "broadcast.sent";
    trace_emit t ~kind:"broadcast.sent" ~node:from ~vgroup:vid ~size:(String.length body) ~bid ();
    (* Phase one: the broadcast goes through the vgroup's SMR; each
       member's execution delivers and starts the gossip. *)
    propose_bcast t (vgroup t vid) ~origin:from ~bid ~body;
    bid

(* ------------------------------------------------------------------ *)
(* Active Byzantine behaviour on the wire                              *)
(* ------------------------------------------------------------------ *)

(* Re-gossip a broadcast from a Byzantine member to every member of
   every H-graph neighbor vgroup, with a per-cycle body chosen by
   [mutate].  Targets are picked like [node_deliver]'s (lowest
   selecting cycle, sorted by neighbor) and sent at the round boundary,
   so the injected traffic schedules deterministically — but the
   attacker ignores the forward policy and always hits every
   neighbor. *)
let byz_gossip t n ~bid ~origin ~mutate =
  match n.vg with
  | None -> ()
  | Some vid ->
    if Hgraph.mem t.hgraph vid then begin
      let vg = vgroup t vid in
      let targets = List.map (fun (nb, cycles) -> (nb, List.hd cycles)) (gossip_view t vg) in
      let roster = vg.roster in
      defer t (fun () ->
          List.iter
            (fun (nb, cycle) ->
              match vgroup_opt t nb with
              | Some nbg when not nbg.retired ->
                let body = mutate cycle in
                Network.send_multi ~size:(64 + String.length body) t.net ~src:n.id
                  ~dsts:(members nbg)
                  (Group_part
                     { src_vg = vid; roster; payload = Bcast { bid; origin; body; cycle } })
              | _ -> ())
            targets)
    end

(* Deterministic per-(bid, node) coin for [Selective_drop]: stable
   across runs, independent of arrival order. *)
let byz_coin ~bid ~nid ~p =
  float_of_int (Hashtbl.hash (bid, nid) land 0xFFFF) < p *. 65536.0

(* What a Byzantine node does with a broadcast part it receives.  The
   [delivered] table doubles as the once-per-bid marker: a Byzantine
   node never delivers properly ([node_deliver] requires
   [is_correct]), so the table is otherwise unused. *)
let byz_on_bcast t n ~bid ~origin ~body =
  match effective_strategy n with
  | Mute | Flood _ | Join_leave_attack | Target_vgroup _ -> ()
  | Equivocate ->
    if not (Atum_util.Bitset.mem n.delivered bid) then begin
      Atum_util.Bitset.set n.delivered bid;
      Metrics.incr t.metrics "byzantine.equivocation";
      trace_emit t ~kind:"byzantine.equivocate" ~node:n.id ?vgroup:n.vg ~bid ();
      byz_gossip t n ~bid ~origin ~mutate:(fun cycle ->
          body ^ "/eq" ^ string_of_int cycle)
    end
  | Selective_drop p ->
    if not (Atum_util.Bitset.mem n.delivered bid) then begin
      Atum_util.Bitset.set n.delivered bid;
      if byz_coin ~bid ~nid:n.id ~p then begin
        Metrics.incr t.metrics "byzantine.selective_drop";
        trace_emit t ~kind:"byzantine.selective_drop" ~node:n.id ~bid ()
      end
      else begin
        Metrics.incr t.metrics "byzantine.relay";
        byz_gossip t n ~bid ~origin ~mutate:(fun _ -> body)
      end
    end

(* ------------------------------------------------------------------ *)
(* Heartbeats and eviction of unresponsive nodes (§5.1)                *)
(* ------------------------------------------------------------------ *)

let heartbeat_sweep t =
  (* Heartbeats draw per-message latencies from the network RNG, so
     the send order must not depend on bucket layout; the arena walks
     vgroups in ascending id order. *)
  Atum_util.Arena.iter
    (fun _ vg ->
      if (not vg.retired) && size vg > 1 then begin
        let members = members vg in
        (* Everyone (including Byzantine nodes, which have an interest
           in not being evicted) heartbeats its vgroup peers. *)
        List.iter
          (fun m ->
            let n = node t m in
            if n.alive then
              List.iter
                (fun peer ->
                  if peer <> m then Network.send ~size:32 t.net ~src:m ~dst:peer Heartbeat)
                members)
          members;
        (* Byzantine members periodically propose to evict correct
           peers (§6.1.3); correct members check their own evidence and
           ignore proposals about nodes they have recently heard. *)
        List.iter
          (fun m ->
            let n = node t m in
            if n.alive && n.byzantine then
              Metrics.incr t.metrics "byzantine.evict_proposal")
          members;
        (* The first correct member checks for silent peers. *)
        match first_correct t vg with
        | None -> ()
        | Some detector ->
          List.iter
            (fun peer ->
              if peer <> detector then begin
                (* Silence only counts from the moment heartbeats
                   started flowing; older [last_seen] entries are
                   join-time seeds, not evidence. *)
                let last =
                  Float.max t.heartbeats_since
                    (Option.value ~default:(now t)
                       (Hashtbl.find_opt t.last_seen (detector, peer)))
                in
                if now t -. last > t.params.eviction_timeout then evict t ~target:peer ()
              end)
            members
      end)
    t.vgroups

let rec heartbeat_loop t () =
  if t.heartbeats_running then begin
    heartbeat_sweep t;
    Engine.schedule ~label:"heartbeat" t.engine ~delay:t.params.heartbeat_period (heartbeat_loop t)
  end

let start_heartbeats t =
  if not t.heartbeats_running then begin
    t.heartbeats_running <- true;
    t.heartbeats_since <- now t;
    Engine.schedule ~label:"heartbeat" t.engine ~delay:t.params.heartbeat_period (heartbeat_loop t)
  end


(* ------------------------------------------------------------------ *)
(* Wire dispatch                                                       *)
(* ------------------------------------------------------------------ *)

(* A receiver's votes for one message from one source vgroup.  A
   toplevel function, so a part allocates no closure to find them. *)
let rec message_votes src_vg origin body = function
  | [] -> raise Not_found
  | v :: rest ->
    if v.from_vg = src_vg && v.origin = origin && String.equal v.body body then v
    else message_votes src_vg origin body rest

(* Every live node records heartbeats and runs the continuation of a
   direct message — a Byzantine node keeps pretending, and a join-leave
   attacker wants in.  A Byzantine node runs no replica; of group
   traffic it only reacts to broadcast parts ([byz_on_bcast]), which a
   [Mute] node ignores and the active strategies equivocate on or
   selectively forward. *)
let handle_wire t nid ~src wire =
  match node_opt t nid with
  | Some n when n.alive -> (
    match wire with
    | Heartbeat -> Hashtbl.replace t.last_seen (nid, src) (now t)
    | Direct { label = _; k } -> k ()
    | Smr_msg { vg = vid; epoch; m } -> (
      match vgroup_opt t vid with
      | Some vg when vg.epoch = epoch && (not vg.retired) && not n.byzantine ->
        receive vg nid ~src m
      | _ -> ())
    | Group_part { src_vg; roster; payload } ->
      if n.byzantine then begin
        match payload with
        | Control _ -> ()
        | Bcast { bid; origin; body; cycle = _ } -> byz_on_bcast t n ~bid ~origin ~body
      end
      else begin
        let needed_src = majority_of roster.size in
        match payload with
        | Control { label = _; row = None } -> ()
        | Control { label = _; row = Some row } ->
          (* Each member accepts once; the [needed]-th acceptance fires. *)
          if row.senders.t_count < needed_src && count_vote row.senders src >= needed_src
          then begin
            let gm = row.gm in
            gm.accepts <- gm.accepts + 1;
            if gm.accepts = gm.needed then gm.k ()
          end
        | Bcast { bid; origin; body; cycle } ->
          if not (Atum_util.Bitset.mem n.delivered bid) then begin
            let key = pair_key nid bid in
            let per_src = try Pair_tbl.find t.bcast_votes key with Not_found -> [] in
            let v =
              match message_votes src_vg origin body per_src with
              | v -> v
              | exception Not_found ->
                let v = { from_vg = src_vg; origin; body; voters = tally roster } in
                Pair_tbl.replace t.bcast_votes key (v :: per_src);
                v
            in
            if count_vote v.voters src >= needed_src then begin
              (* Gossip lineage: this node accepts the broadcast from
                 vgroup [src_vg]; first delivery is a hop edge in the
                 dissemination tree. *)
              if Trace.enabled t.trace then
                trace_emit t ~kind:"bcast.hop" ~node:nid ?vgroup:n.vg ~parent:src_vg ~bid
                  ~cycle ();
              node_deliver t nid ~bid ~origin ~body
            end
          end
          else
            (* Redundant receive: the gossip reached a node that had
               already delivered [bid]. *)
            if Trace.enabled t.trace then
              trace_emit t ~kind:"bcast.dup" ~node:nid ?vgroup:n.vg ~parent:src_vg ~bid
                ~cycle ()
      end)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Driving the synchronous deployment                                  *)
(* ------------------------------------------------------------------ *)

(* Round boundaries emit wire messages; drive vgroups in id order (and
   their members in id order) so the event queue fills
   deterministically. *)
let drive_sync_round t _round =
  Atum_util.Arena.iter (fun _ vg -> if not vg.retired then on_round_boundary t vg) t.vgroups

(* ------------------------------------------------------------------ *)
(* Node lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let spawn_node t ?(byzantine = false) () =
  let id =
    Atum_util.Arena.alloc_with t.nodes (fun id ->
        {
          id;
          vg = None;
          byzantine;
          strategy = Mute;
          alive = true;
          exchanging = false;
          delivered = Atum_util.Bitset.create ();
        })
  in
  Atum_crypto.Signature.register t.keyring (node_name id);
  Network.register t.net id (fun ~src w -> handle_wire t id ~src w);
  id

let bootstrap t ?(byzantine = false) () =
  if t.bootstrapped then invalid_arg "System.bootstrap: already bootstrapped";
  t.bootstrapped <- true;
  let id = spawn_node t ~byzantine () in
  let vg = add_vgroup t ~members:[ id ] ~busy:false in
  let vid = vg.vid in
  set_node_vg t (node t id) (Some vid);
  (* Replace the placeholder overlay with one rooted at the bootstrap
     vgroup: a single vertex that neighbors itself on every cycle. *)
  t.hgraph <- Hgraph.singleton ~cycles:t.params.hc vid;
  ensure_smr t vg;
  (match t.rounds with
  | Some r ->
    ignore (Rounds.subscribe r (fun round -> drive_sync_round t round));
    Rounds.start r
  | None -> ());
  id

(* Bulk construction for the scale benchmark and large experiments:
   build the registry and overlay directly instead of running one
   join saga (walk + agreement + shuffle) per node.  The result is a
   valid settled system — [check_consistency] passes, every vgroup
   size stays inside [gmin, gmax] (except a sub-[gmin] total) — and
   SMR instances are installed lazily, so the build
   cost is the registry itself, not a million replicas.  Returns the
   node ids in ascending order. *)
let build_direct t ~nodes:count () =
  if t.bootstrapped then invalid_arg "System.build_direct: already bootstrapped";
  if count < 1 then invalid_arg "System.build_direct: need at least one node";
  t.bootstrapped <- true;
  let g = max 1 ((t.params.gmin + t.params.gmax) / 2) in
  let ids = Array.init count (fun _ -> spawn_node t ()) in
  (* Round to the nearest group count so sizes land within one of the
     [gmin..gmax] midpoint. *)
  let groups = max 1 (((2 * count) + g) / (2 * g)) in
  let base = count / groups and extra = count mod groups in
  let vids = ref [] in
  let off = ref 0 in
  for gi = 0 to groups - 1 do
    let take = base + if gi < extra then 1 else 0 in
    let members = Array.to_list (Array.sub ids !off take) in
    let vg = add_vgroup t ~members ~busy:false in
    List.iter (fun m -> set_node_vg t (node t m) (Some vg.vid)) members;
    vids := vg.vid :: !vids;
    off := !off + take
  done;
  (match List.rev !vids with
  | [ v ] -> t.hgraph <- Hgraph.singleton ~cycles:t.params.hc v
  | vids -> t.hgraph <- Hgraph.create ~cycles:t.params.hc t.rng vids);
  (match t.rounds with
  | Some r ->
    ignore (Rounds.subscribe r (fun round -> drive_sync_round t round));
    Rounds.start r
  | None -> ());
  Array.to_list ids

let crash t nid =
  let n = node t nid in
  set_node_alive t n false;
  Network.crash t.net nid;
  Metrics.incr t.metrics "node.crashed";
  trace_emit t ~kind:"node.crashed" ~node:nid ()

(* Inverse of [crash]: the node comes back with whatever registry
   state it still holds.  If its vgroup evicted it while it was down,
   it rejoins nothing (vg = None) and simply idles; otherwise it
   resumes heartbeating and protocol participation, and the monitor's
   [vg_crashed] count stops growing — which is the signal the
   convergence checker watches. *)
let recover t nid =
  let n = node t nid in
  if not n.alive then begin
    set_node_alive t n true;
    Network.recover t.net nid;
    Metrics.incr t.metrics "node.recovered";
    trace_emit t ~kind:"node.recovered" ~node:nid ()
  end

(* ------------------------------------------------------------------ *)
(* Cold restart: durable recovery + rejoin + catch-up                  *)
(* ------------------------------------------------------------------ *)

(* After the node is back in a vgroup, pull the broadcasts it missed
   while down from one correct live peer in its vgroup: one request /
   response round-trip, then re-deliver each missed broadcast through
   the normal path (which also re-persists and re-gossips it). *)
let start_catchup t (report : restart_report) nid ~t0 =
  let n = node t nid in
  let peer =
    match n.vg with
    | None -> None
    | Some vid -> (
      match vgroup_opt t vid with
      | Some vg when not vg.retired ->
        List.find_opt (fun m -> m <> nid && is_correct (node t m)) (members vg)
      | _ -> None)
  in
  match peer with
  | None ->
    (* Nobody to ask (fresh singleton vgroup or no correct peer): the
       node is as caught up as the system can make it. *)
    report.r_caught_up_at <- Some (now t);
    Metrics.incr t.metrics "recovery.catchup.empty"
  | Some peer ->
    trace_emit t ~kind:"recovery.catchup.begin" ~node:nid ~peer ();
    direct_send t ~src:nid ~dst:peer ~label:"catchup-req"
      ~k:(fun () ->
        (* The peer diffs its delivered set against the request's;
           origin and body come from the broadcast metadata. *)
        let missed = ref [] in
        Atum_util.Bitset.iter
          (fun bid ->
            if not (Atum_util.Bitset.mem n.delivered bid) then
              match Hashtbl.find_opt t.bcasts bid with
              | Some meta -> missed := (bid, meta.b_origin, meta.b_body) :: !missed
              | None -> ())
          (node t peer).delivered;
        let missed = List.rev !missed in
        direct_send t ~src:peer ~dst:nid ~label:"catchup-data"
          ~k:(fun () ->
            List.iter
              (fun (bid, origin, body) ->
                Metrics.incr t.metrics "recovery.catchup.delivered";
                node_deliver t nid ~bid ~origin ~body)
              missed;
            report.r_caught_up_at <- Some (now t);
            Atum_sim.Metrics.observe t.metrics "recovery.catchup.duration" (now t -. t0);
            trace_emit t ~kind:"recovery.catchup.end" ~node:nid ~size:(List.length missed) ())
          ())
      ()

(* Apply one WAL record to the cold node's in-memory state.  Replay is
   local-only: no gossip, no [on_deliver] (the workload's counters
   would double-count) — the application sees it through the dedicated
   replay hook. *)
let apply_wal_record t (n : node) record =
  match Json.member "t" record with
  | Some (Json.String "deliver") -> (
    match (Json.member "bid" record, Json.member "origin" record, Json.member "body" record) with
    | Some (Json.Int bid), Some (Json.Int origin), Some (Json.String body) ->
      Atum_util.Bitset.set n.delivered bid;
      (match t.app_replay with Some f -> f n.id ~bid ~origin body | None -> ())
    | _ -> ())
  | _ -> () (* "vg" records: the registry is ground truth, nothing to apply *)

(* Cold restart of a crashed node from its durable store: wipe the
   in-memory state (a real process restart loses it all), rebuild from
   snapshot + WAL, then either resume in place (still in the registry)
   or fresh-join through a contact, and finally catch up on missed
   broadcasts.  A corrupt store (bad WAL record or snapshot that fails
   authentication) falls back to wiping it and fresh-joining — counted
   under [recovery.fallback]. *)
let restart ?contact t nid =
  let n = node t nid in
  if n.alive then invalid_arg "System.restart: node is alive";
  let t0 = now t in
  let span = span_begin t ~saga:"restart" ~node:nid () in
  Metrics.incr t.metrics "recovery.restart";
  trace_emit t ~kind:"recovery.restart" ~node:nid ();
  (* Everything in memory is gone. *)
  Atum_util.Bitset.clear n.delivered;
  (match t.app_wipe with Some f -> f nid | None -> ());
  let replayed = ref 0 in
  let fallback = ref false in
  (match t.store with
  | None -> ()
  | Some store ->
    let r = Replica.recover store ~node:nid in
    if Replica.corrupt r then begin
      fallback := true;
      Metrics.incr t.metrics "recovery.fallback";
      trace_emit t ~kind:"recovery.fallback" ~node:nid ();
      Replica.wipe store ~node:nid
    end
    else begin
      (match r.Replica.wal_status with
      | Atum_store.Wal.Truncated { dropped_bytes } ->
        Metrics.incr t.metrics "recovery.wal.truncated";
        trace_emit t ~kind:"recovery.wal.truncated" ~node:nid ~size:dropped_bytes ()
      | _ -> ());
      (match r.Replica.snapshot with
      | Some snap ->
        (match Json.member "delivered" snap with
        | Some (Json.List bids) ->
          List.iter
            (function Json.Int b -> Atum_util.Bitset.set n.delivered b | _ -> ())
            bids
        | _ -> ());
        (match (t.app_import, Json.member "app" snap) with
        | Some f, Some (Json.Obj _ as app) -> f nid app
        | _ -> ())
      | None -> ());
      List.iter
        (fun record ->
          incr replayed;
          Metrics.incr t.metrics "recovery.replay.entries";
          apply_wal_record t n record)
        r.Replica.entries
    end);
  set_node_alive t n true;
  Network.recover t.net nid;
  Metrics.incr t.metrics "node.recovered";
  trace_emit t ~kind:"recovery.up" ~node:nid ~size:!replayed ();
  let report =
    {
      r_node = nid;
      r_restarted_at = t0;
      r_rejoined_at = None;
      r_caught_up_at = None;
      r_fallback = !fallback;
      r_replayed = !replayed;
    }
  in
  t.restarts <- report :: t.restarts;
  let rejoined () =
    report.r_rejoined_at <- Some (now t);
    Atum_sim.Metrics.observe t.metrics "recovery.rejoin.duration" (now t -. t0);
    trace_emit t ~kind:"recovery.rejoined" ~node:nid ();
    span_end t ~saga:"restart" ~node:nid span;
    start_catchup t report nid ~t0
  in
  let still_member =
    match n.vg with
    | Some vid -> (
      match vgroup_opt t vid with
      | Some vg -> (not vg.retired) && has_member vg nid
      | None -> false)
    | None -> false
  in
  if still_member then begin
    (* The registry never evicted it: resume in place. *)
    Metrics.incr t.metrics "recovery.resume";
    rejoined ()
  end
  else begin
    if Option.is_some n.vg then set_node_vg t n None;
    Metrics.incr t.metrics "recovery.rejoin";
    let contact =
      match contact with
      | Some c
        when (match node_opt t c with Some cn -> is_correct cn && Option.is_some cn.vg | None -> false)
        ->
        Some c
      | _ -> (
        match List.filter (fun (m : node) -> m.id <> nid && is_correct m) (live_nodes t) with
        | [] -> None
        | m :: _ -> Some m.id)
    in
    match contact with
    | None ->
      (* A one-node system with a corrupt store: nothing to join. *)
      Metrics.incr t.metrics "recovery.no_contact";
      span_end t ~saga:"restart" ~node:nid span
    | Some contact -> join t ~joiner:nid ~contact ~k:(fun _ -> rejoined ()) ()
  end

let restart_reports t = List.rev t.restarts

let sent_body t bid = Option.map (fun m -> m.b_body) (Hashtbl.find_opt t.bcasts bid)

(* --- periodic drivers for the active Byzantine strategies ----------- *)

let byz_pick_live t ~but =
  match
    List.filter_map
      (fun (m : node) -> if m.id <> but then Some m.id else None)
      (live_nodes t)
  with
  | [] -> None
  | ids -> Some (Rng.pick t.rng ids)

(* Junk point-to-point traffic: each tick sends [fanout] direct
   messages with no-op continuations to random live nodes, burning
   their receive capacity. *)
let start_flood t nid ~fanout ~size =
  Engine.every ~label:"byzantine.flood" t.engine ~period:5.0 (fun () ->
      let n = node t nid in
      if n.alive && n.byzantine then begin
        for _ = 1 to fanout do
          match byz_pick_live t ~but:nid with
          | Some dst ->
            Metrics.incr t.metrics "byzantine.flood.sent";
            Network.send ~size t.net ~src:nid ~dst (Direct { label = "byz-flood"; k = ignore })
          | None -> ()
        done;
        true
      end
      else false)

(* Alternate leave / rejoin to keep the membership machinery churning
   (the attack of Guerraoui et al.'s dynamic-Byzantine model). *)
let start_join_leave t nid =
  Engine.every ~label:"byzantine.join_leave" t.engine ~period:30.0 (fun () ->
      let n = node t nid in
      if n.alive && n.byzantine then begin
        Metrics.incr t.metrics "byzantine.join_leave";
        (match n.vg with
        | Some _ -> leave t ~target:nid ()
        | None -> (
          match byz_pick_live t ~but:nid with
          | Some contact -> join t ~joiner:nid ~contact ()
          | None -> ()));
        true
      end
      else false)

(* The paper's targeted attack (§6.2): re-roll join placements until
   the node lands in the target vgroup.  Each attempt goes through the
   normal join saga, so the random walk (and shuffling) is exactly the
   defense being probed.  The driver stops when the target retires —
   merged or split away, the attack has lost its objective. *)
let start_target t nid ~target =
  let landed = ref false in
  Engine.every ~label:"byzantine.target" t.engine ~period:30.0 (fun () ->
      let n = node t nid in
      match vgroup_opt t target with
      | Some tvg when (not tvg.retired) && n.alive && n.byzantine ->
        (match n.vg with
        | Some vid when vid = target ->
          if not !landed then begin
            landed := true;
            Metrics.incr t.metrics "byzantine.target.landed";
            trace_emit t ~kind:"byzantine.target.landed" ~node:nid ~vgroup:target ()
          end
        | Some _ ->
          landed := false;
          Metrics.incr t.metrics "byzantine.target.attempt";
          leave t ~target:nid ()
        | None -> (
          landed := false;
          Option.iter
            (fun contact ->
              Metrics.incr t.metrics "byzantine.target.attempt";
              join t ~joiner:nid ~contact ())
            (first_correct t tvg)));
        true
      | _ -> false)

let make_byzantine t ?(strategy = Mute) nid =
  (match strategy with
  | Selective_drop p when p < 0.0 || p > 1.0 ->
    invalid_arg "System.make_byzantine: Selective_drop probability outside [0, 1]"
  | Target_vgroup { inner = Target_vgroup _; _ } ->
    invalid_arg "System.make_byzantine: nested Target_vgroup"
  | Mute | Equivocate | Selective_drop _ | Flood _ | Join_leave_attack
  | Target_vgroup _ -> ());
  let n = node t nid in
  if (not n.byzantine) && is_live n then t.live_byz_count <- t.live_byz_count + 1;
  (match n.vg with Some v -> mark_dirty t v | None -> ());
  n.byzantine <- true;
  n.strategy <- strategy;
  Metrics.incr t.metrics "node.byzantine";
  Metrics.incr t.metrics ("byzantine.strategy." ^ strategy_name strategy);
  match strategy with
  | Mute | Equivocate | Selective_drop _ -> ()
  | Flood { fanout; size } -> start_flood t nid ~fanout ~size
  | Join_leave_attack -> start_join_leave t nid
  | Target_vgroup { vg; inner = _ } -> start_target t nid ~target:vg

let hgraph t = t.hgraph

(* Ablation hook: disabling shuffling removes the fault-dispersal
   mechanism of §3.2 while keeping joins/leaves/splits/merges intact;
   the ablation benchmark uses it to show why shuffling matters. *)
let set_shuffling t enabled = t.shuffling_enabled <- enabled

let byzantine_concentration t =
  (* max fraction of Byzantine members over all vgroups *)
  Atum_util.Arena.fold
    (fun _ vg acc ->
      if vg.retired || size vg = 0 then acc
      else begin
        let byz = List.length (List.filter (fun m -> (node t m).byzantine) (members vg)) in
        Float.max acc (float_of_int byz /. float_of_int (size vg))
      end)
    t.vgroups 0.0

(* Registry invariants, used by tests: membership is mutual (node.vg
   matches vgroup.members), every active vgroup is an H-graph vertex,
   and no node belongs to two vgroups. *)

(* Per-vgroup invariant body.  Error order stays reproducible: the
   arena walks ascending vgroup ids. *)
let check_vgroup_into t errors vid vg =
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if vg.retired then begin
    if Hgraph.mem t.hgraph vid && vgroup_count t > 0 then
      err "retired vgroup %d still in overlay" vid
  end
  else begin
    if not (Hgraph.mem t.hgraph vid) then err "vgroup %d missing from overlay" vid;
    if not vg.busy then
      for cycle = 0 to t.params.hc - 1 do
        if Hgraph.successor_opt t.hgraph ~cycle vid = None then
          err "settled vgroup %d absent from cycle %d" vid cycle
      done;
    if size vg = 0 then err "active vgroup %d is empty" vid;
    List.iter
      (fun m ->
        match node_opt t m with
        | None -> err "vgroup %d contains unknown node %d" vid m
        | Some n ->
          if not (Option.equal Int.equal n.vg (Some vid)) then
            err "node %d in vgroup %d's member list but points to %s" m vid
              (match n.vg with None -> "none" | Some v -> string_of_int v))
      (members vg);
    (* A repeated id has one rank, so some other position mismatches. *)
    if List.exists Fun.id (List.mapi (fun i m -> rank vg.roster m <> i) (members vg)) then
      err "vgroup %d has duplicate members" vid
  end

let check_consistency t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Atum_util.Arena.iter (fun vid vg -> check_vgroup_into t errors vid vg) t.vgroups;
  Atum_util.Arena.iter
    (fun nid n ->
      match n.vg with
      | None -> ()
      | Some vid -> (
        match vgroup_opt t vid with
        | None -> err "node %d points to unknown vgroup %d" nid vid
        | Some vg ->
          if vg.retired then err "node %d points to retired vgroup %d" nid vid
          else if not (has_member vg nid) then
            err "node %d points to vgroup %d but is not a member" nid vid))
    t.nodes;
  List.iter
    (fun v ->
      match vgroup_opt t v with
      | Some vg when not vg.retired -> ()
      | _ -> err "overlay vertex %d is not an active vgroup" v)
    (Hgraph.vertices t.hgraph);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

let run_until t time = Engine.run ~until:time t.engine

let run_for t dt = Engine.run ~until:(now t +. dt) t.engine

(* ------------------------------------------------------------------ *)
(* Telemetry: the standard gauge set                                   *)
(* ------------------------------------------------------------------ *)

(* Store gauges read the durability layer's counters; registered from
   whichever of [attach_telemetry] / [attach_store] comes second. *)
let register_store_gauges tel store =
  let reg = Telemetry.register tel in
  reg "store.log.bytes" (fun () -> float_of_int (Replica.log_bytes store));
  reg "store.fsync.count" (fun () -> float_of_int (Replica.fsyncs store));
  reg "store.appends" (fun () -> float_of_int (Replica.appends store));
  reg "store.snapshots" (fun () -> float_of_int (Replica.snapshots store));
  reg "store.replay.entries" (fun () -> float_of_int (Replica.replayed store))

(* Every gauge only *reads* simulation state — no RNG draw, no message,
   no registry mutation — so attaching telemetry cannot perturb a
   seeded run beyond interleaving pure sampling events. *)
let attach_telemetry ?period ?capacity t =
  match t.telemetry with
  | Some tel -> tel
  | None ->
    let tel = Telemetry.create ?period ?capacity t.engine in
    let reg = Telemetry.register tel in
    let delta = Telemetry.register_delta tel in
    reg "system.size" (fun () -> float_of_int (system_size t));
    reg "system.byzantine" (fun () -> float_of_int (live_byzantine_count t));
    reg "vgroup.count" (fun () -> float_of_int (vgroup_count t));
    let sizes () = vgroup_sizes t in
    reg "vgroup.size.min" (fun () ->
        match sizes () with [] -> 0.0 | s -> float_of_int (List.fold_left min max_int s));
    reg "vgroup.size.max" (fun () ->
        match sizes () with [] -> 0.0 | s -> float_of_int (List.fold_left max 0 s));
    reg "vgroup.size.mean" (fun () ->
        match sizes () with
        | [] -> 0.0
        | s -> float_of_int (List.fold_left ( + ) 0 s) /. float_of_int (List.length s));
    reg "engine.pending" (fun () -> float_of_int (Engine.pending t.engine));
    reg "net.inflight" (fun () ->
        float_of_int
          (Network.messages_sent t.net - Network.messages_delivered t.net
         - Network.messages_dropped t.net));
    delta "net.bytes.delta" (fun () -> Network.bytes_sent t.net);
    delta "net.sent.delta" (fun () -> Network.messages_sent t.net);
    List.iter
      (fun reason ->
        delta
          ("net.drop." ^ reason ^ ".delta")
          (fun () -> Metrics.counter t.metrics ("net.drop." ^ reason)))
      [ "partition"; "loss"; "no_handler" ];
    (* Sagas in flight: begins minus ends over every saga span kind.
       The counters are bumped by [span_begin]/[span_end] below. *)
    reg "saga.active" (fun () ->
        float_of_int
          (Metrics.counter t.metrics "saga.begin.total"
          - Metrics.counter t.metrics "saga.end.total"));
    delta "monitor.violation.delta" (fun () ->
        Metrics.prefix_total t.metrics "monitor.violation.");
    (match t.store with Some store -> register_store_gauges tel store | None -> ());
    Telemetry.start tel;
    t.telemetry <- Some tel;
    tel

let telemetry t = t.telemetry

(* ------------------------------------------------------------------ *)
(* Durable store attachment                                            *)
(* ------------------------------------------------------------------ *)

let attach_store ?snapshot_every t backend =
  if Option.is_some t.store then invalid_arg "System.attach_store: store already attached";
  let store =
    Replica.create ?snapshot_every
      ~key:("atum-store-" ^ string_of_int t.params.seed)
      backend
  in
  t.store <- Some store;
  (match t.telemetry with Some tel -> register_store_gauges tel store | None -> ());
  store

let store t = t.store

let set_app_state t ~export ~wipe ~import ~replay =
  t.app_export <- Some export;
  t.app_wipe <- Some wipe;
  t.app_import <- Some import;
  t.app_replay <- Some replay
