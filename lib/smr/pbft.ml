type request = { rid : string; op : string }

type msg =
  | Request of request
  | Preprepare of { view : int; seq : int; req : request }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string }
  | Viewchange of { new_view : int; prepared : (int * request) list }
  | Newview of { view : int; assignments : (int * request) list }

(* Prepare/commit votes are buffered per (view, digest) so that votes
   arriving before the pre-prepare (common under random latencies) are
   not lost. *)
type entry = {
  mutable view : int;
  mutable req : request option;
  mutable digest : string;
  mutable prepares : (Smr_intf.node_id * int * string) list; (* node, view, digest *)
  mutable commits : (Smr_intf.node_id * int * string) list;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable executed : bool;
  mutable cert_prepared : bool; (* carried over from a view-change certificate *)
}

type t = {
  tr : msg Smr_intf.transport;
  timeout : float;
  on_execute : Smr_intf.op -> unit;
  n : int;
  log : (int, entry) Hashtbl.t;
  mutable view : int;
  mutable next_seq : int;
  mutable exec_next : int;
  mutable own_requests : request list;
  watched : (string, request) Hashtbl.t; (* requests we relay & monitor *)
  mutable rid_counter : int;
  executed_rids : (string, unit) Hashtbl.t;
  viewchange_votes : (int, Smr_intf.node_id list ref) Hashtbl.t;
  mutable voted_views : int list;
  mutable stopped : bool;
}

let digest_of req = Atum_crypto.Sha256.digest_hex (req.rid ^ "\x00" ^ req.op)

let create ~transport ~timeout ~on_execute =
  {
    tr = transport;
    timeout;
    on_execute;
    n = List.length transport.Smr_intf.members;
    log = Hashtbl.create 64;
    view = 0;
    next_seq = 1;
    exec_next = 1;
    own_requests = [];
    watched = Hashtbl.create 16;
    rid_counter = 0;
    executed_rids = Hashtbl.create 64;
    viewchange_votes = Hashtbl.create 8;
    voted_views = [];
    stopped = false;
  }

let view t = t.view

let members_sorted t = List.sort Int.compare t.tr.Smr_intf.members

let primary_of t v = List.nth (members_sorted t) (v mod t.n)

let primary t = primary_of t t.view

let quorum t = (2 * t.tr.Smr_intf.f) + 1

let broadcast t m =
  List.iter (fun dst -> if dst <> t.tr.self then t.tr.send dst m) t.tr.members

let fresh_entry view =
  {
    view;
    req = None;
    digest = "";
    prepares = [];
    commits = [];
    sent_commit = false;
    committed = false;
    executed = false;
    cert_prepared = false;
  }

let entry_for t seq =
  match Hashtbl.find_opt t.log seq with
  | Some e -> e
  | None ->
    let e = fresh_entry t.view in
    Hashtbl.replace t.log seq e;
    e

let add_vote votes node view digest =
  if List.exists (fun (n, v, _) -> n = node && v = view) votes then votes
  else (node, view, digest) :: votes

let count_matching votes view digest =
  List.length (List.filter (fun (_, v, d) -> v = view && String.equal d digest) votes)

let rec try_execute t =
  match Hashtbl.find_opt t.log t.exec_next with
  | Some e when e.committed && not e.executed ->
    e.executed <- true;
    (match e.req with
    | Some req when req.op <> "" && not (Hashtbl.mem t.executed_rids req.rid) ->
      Hashtbl.replace t.executed_rids req.rid ();
      t.own_requests <- List.filter (fun r -> r.rid <> req.rid) t.own_requests;
      Hashtbl.remove t.watched req.rid;
      (match String.index_opt req.rid '/' with
      | Some i ->
        let origin = int_of_string (String.sub req.rid 0 i) in
        t.on_execute { Smr_intf.origin; payload = req.op }
      | None -> ())
    | Some req ->
      t.own_requests <- List.filter (fun r -> r.rid <> req.rid) t.own_requests;
      Hashtbl.remove t.watched req.rid
    | None -> ());
    t.exec_next <- t.exec_next + 1;
    try_execute t
  | _ -> ()

(* --- normal case --------------------------------------------------- *)

let rec assign_seq t req =
  if not (Hashtbl.mem t.executed_rids req.rid) then begin
    let already_assigned =
      Hashtbl.fold
        (fun _ e acc ->
          acc
          ||
          match e.req with
          | Some r -> r.rid = req.rid && not e.executed && e.view = t.view
          | None -> false)
        t.log false
    in
    if not already_assigned then begin
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      broadcast t (Preprepare { view = t.view; seq; req });
      handle_preprepare t ~src:t.tr.self ~view:t.view ~seq ~req
    end
  end

and handle_preprepare t ~src ~view ~seq ~req =
  if view = t.view && src = primary t && seq >= t.exec_next then begin
    let e = entry_for t seq in
    if (not e.executed) && (Option.is_none e.req || e.view < view) then begin
      e.view <- view;
      e.req <- Some req;
      e.digest <- digest_of req;
      e.sent_commit <- false;
      e.committed <- false;
      broadcast t (Prepare { view; seq; digest = e.digest });
      handle_prepare t ~src:t.tr.self ~view ~seq ~digest:e.digest
    end
  end

and maybe_advance t seq e =
  (* Called whenever a vote lands: check prepared, then committed. *)
  if Option.is_some e.req && not e.executed then begin
    let prepared = count_matching e.prepares e.view e.digest >= quorum t in
    if prepared && not e.sent_commit then begin
      e.sent_commit <- true;
      broadcast t (Commit { view = e.view; seq; digest = e.digest });
      handle_commit t ~src:t.tr.self ~view:e.view ~seq ~digest:e.digest
    end
    else if prepared && (not e.committed)
            && count_matching e.commits e.view e.digest >= quorum t
    then begin
      e.committed <- true;
      try_execute t
    end
  end

and handle_prepare t ~src ~view ~seq ~digest =
  if view >= t.view && seq >= t.exec_next then begin
    let e = entry_for t seq in
    e.prepares <- add_vote e.prepares src view digest;
    maybe_advance t seq e
  end

and handle_commit t ~src ~view ~seq ~digest =
  if view >= t.view && seq >= t.exec_next then begin
    let e = entry_for t seq in
    e.commits <- add_vote e.commits src view digest;
    maybe_advance t seq e
  end

(* --- view change ---------------------------------------------------- *)

and prepared_certificates t =
  (* Certificates travel inside VIEWCHANGE wire messages; enumerate the
     log in sequence order so identical state serializes identically. *)
  List.filter_map
    (fun (seq, e) ->
      match e.req with
      | Some req
        when (not e.executed)
             && (e.cert_prepared || e.committed
                || count_matching e.prepares e.view e.digest >= quorum t) ->
        Some (seq, req)
      | _ -> None)
    (Atum_util.Hashtbl_ext.sorted_bindings ~cmp:Int.compare t.log)

and vote_viewchange t new_view =
  if (not (List.mem new_view t.voted_views)) && new_view > t.view then begin
    t.voted_views <- new_view :: t.voted_views;
    let certs = prepared_certificates t in
    broadcast t (Viewchange { new_view; prepared = certs });
    handle_viewchange t ~src:t.tr.self ~new_view ~prepared:certs
  end

and handle_viewchange t ~src ~new_view ~prepared =
  if new_view > t.view then begin
    let votes =
      match Hashtbl.find_opt t.viewchange_votes new_view with
      | Some v -> v
      | None ->
        let v = ref [] in
        Hashtbl.replace t.viewchange_votes new_view v;
        v
    in
    if not (List.mem src !votes) then votes := src :: !votes;
    List.iter
      (fun (seq, req) ->
        if seq >= t.exec_next then begin
          let e = entry_for t seq in
          if (not e.executed) && Option.is_none e.req then begin
            e.req <- Some req;
            e.digest <- digest_of req
          end;
          e.cert_prepared <- true
        end)
      prepared;
    if List.length !votes >= t.tr.Smr_intf.f + 1 then vote_viewchange t new_view;
    if List.length !votes >= quorum t && new_view > t.view then begin
      if primary_of t new_view = t.tr.self then enter_new_view_as_primary t new_view
    end
  end

and enter_new_view_as_primary t new_view =
  t.view <- new_view;
  let certs =
    List.filter_map
      (fun (seq, e) ->
        match e.req with
        | Some req when (e.cert_prepared || e.committed) && not e.executed ->
          Some (seq, req)
        | _ -> None)
      (Atum_util.Hashtbl_ext.sorted_bindings ~cmp:Int.compare t.log)
  in
  let max_seq = List.fold_left (fun acc (s, _) -> max acc s) (t.exec_next - 1) certs in
  let assignments = ref [] in
  for seq = t.exec_next to max_seq do
    let req =
      match List.assoc_opt seq certs with
      | Some req -> req
      | None -> { rid = Printf.sprintf "noop/%d/%d" new_view seq; op = "" }
    in
    assignments := (seq, req) :: !assignments
  done;
  let assignments = List.rev !assignments in
  t.next_seq <- max_seq + 1;
  broadcast t (Newview { view = new_view; assignments });
  adopt_assignments t new_view assignments;
  List.iter (fun req -> assign_seq t req) (List.rev t.own_requests);
  (* Sequence numbers are handed out in iteration order, so the order
     must not depend on hash-bucket layout. *)
  Atum_util.Hashtbl_ext.sorted_iter ~cmp:String.compare (fun _ req -> assign_seq t req) t.watched

and adopt_assignments t new_view assignments =
  t.view <- max t.view new_view;
  List.iter
    (fun (seq, req) ->
      if seq >= t.exec_next then begin
        let e = entry_for t seq in
        if not e.executed then begin
          e.view <- new_view;
          e.req <- Some req;
          e.digest <- digest_of req;
          e.sent_commit <- false;
          e.committed <- false;
          broadcast t (Prepare { view = new_view; seq; digest = e.digest });
          handle_prepare t ~src:t.tr.self ~view:new_view ~seq ~digest:e.digest
        end
      end)
    assignments

and handle_newview t ~src ~view:new_view ~assignments =
  if new_view > t.view && src = primary_of t new_view then begin
    adopt_assignments t new_view assignments;
    (* Retransmit our pending requests to the new primary. *)
    let p = primary t in
    List.iter
      (fun req ->
        if p = t.tr.self then assign_seq t req else t.tr.send p (Request req))
      (List.rev t.own_requests);
    List.iter (fun req -> arm_timer t req) (List.rev t.own_requests)
  end

and arm_timer t req =
  t.tr.set_timer t.timeout (fun () ->
      if (not t.stopped) && not (Hashtbl.mem t.executed_rids req.rid) then begin
        (* Suspect the primary, and spread the request so that other
           members start watching it too (their timeouts make the
           view-change quorum reachable).  If we already voted a view
           out and its NEW-VIEW never came — the next primary is
           faulty too — escalate past it. *)
        let next = 1 + List.fold_left max t.view t.voted_views in
        vote_viewchange t next;
        broadcast t (Request req);
        arm_timer t req
      end)

(* --- public API ----------------------------------------------------- *)

let propose t op =
  if not t.stopped then begin
    t.rid_counter <- t.rid_counter + 1;
    let rid = Printf.sprintf "%d/%d" t.tr.self t.rid_counter in
    let req = { rid; op } in
    t.own_requests <- req :: t.own_requests;
    if primary t = t.tr.self then assign_seq t req else t.tr.send (primary t) (Request req);
    arm_timer t req
  end

let handle_request t req =
  if not (Hashtbl.mem t.executed_rids req.rid) then begin
    if primary t = t.tr.self then assign_seq t req
    else if not (Hashtbl.mem t.watched req.rid) then begin
      (* Relay to the primary and watch: if it never executes, we join
         the view change. *)
      Hashtbl.replace t.watched req.rid req;
      t.tr.send (primary t) (Request req);
      arm_timer t req
    end
  end

let receive t ~src m =
  if (not t.stopped) && List.mem src t.tr.Smr_intf.members then begin
    match m with
    | Request req -> handle_request t req
    | Preprepare { view; seq; req } -> handle_preprepare t ~src ~view ~seq ~req
    | Prepare { view; seq; digest } -> handle_prepare t ~src ~view ~seq ~digest
    | Commit { view; seq; digest } -> handle_commit t ~src ~view ~seq ~digest
    | Viewchange { new_view; prepared } -> handle_viewchange t ~src ~new_view ~prepared
    | Newview { view; assignments } -> handle_newview t ~src ~view ~assignments
  end

let stop t = t.stopped <- true
