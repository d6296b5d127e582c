(* A request carries its digest: it is computed once, where the request
   is made, and every replica that handles the request reuses it. *)
type request = { rid : string; op : string; digest : string }

let request rid op = { rid; op; digest = Atum_crypto.Sha256.digest_hex (rid ^ "\x00" ^ op) }

type msg =
  | Request of request
  | Preprepare of { view : int; seq : int; req : request }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string }
  | Viewchange of { new_view : int; prepared : (int * request) list }
  | Newview of { view : int; assignments : (int * request) list }

(* Prepare (or commit) votes for one sequence number, kept so that
   votes arriving before the pre-prepare (common under random
   latencies) are not lost.  A member votes at most once per view and
   its first vote in a view wins.  [views]/[digests] hold each rank's
   latest vote (view -1: none yet) and [older] the votes it replaced —
   a rank votes in several views only across a view change.  [count]
   is the number of retained votes that match the entry's current
   (view, digest); it is kept on every vote and recounted when that key
   changes. *)
type tally = {
  views : int array;
  digests : string array;
  mutable older : (int * int * string) list; (* rank, view, digest *)
  mutable count : int;
}

let tally n = { views = Array.make n (-1); digests = Array.make n ""; older = []; count = 0 }

let rec voted_before (older : (int * int * string) list) rank view =
  match older with
  | [] -> false
  | (r, v, _) :: rest -> (r = rank && v = view) || voted_before rest rank view

let add_vote tl ~rank ~view ~digest ~key_view ~key_digest =
  let latest = tl.views.(rank) in
  if latest <> view && not (voted_before tl.older rank view) then begin
    if latest >= 0 then tl.older <- (rank, latest, tl.digests.(rank)) :: tl.older;
    tl.views.(rank) <- view;
    tl.digests.(rank) <- digest;
    if view = key_view && String.equal digest key_digest then tl.count <- tl.count + 1
  end

let rec count_older (older : (int * int * string) list) view digest acc =
  match older with
  | [] -> acc
  | (_, v, d) :: rest ->
    count_older rest view digest (if v = view && String.equal d digest then acc + 1 else acc)

let recount tl view digest =
  let c = ref 0 in
  for r = 0 to Array.length tl.views - 1 do
    if tl.views.(r) = view && String.equal tl.digests.(r) digest then incr c
  done;
  tl.count <- count_older tl.older view digest !c

type entry = {
  mutable view : int;
  mutable req : request option;
  mutable digest : string; (* [req]'s digest, "" while there is none *)
  prepares : tally;
  commits : tally;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable executed : bool;
  mutable cert_prepared : bool; (* carried over from a view-change certificate *)
}

(* What this replica knows of one request id. *)
type rid_state = {
  mutable seqs : int list; (* log slots that have held the request *)
  mutable executed_rid : bool;
  mutable watched : request option; (* relayed to the primary and timed *)
}

module Rids = Hashtbl.Make (String)

(* One vote tally per view that some member asked to move to. *)
type vc_votes = { vc_view : int; voters : Bytes.t; mutable voter_count : int }

type t = {
  tr : msg Smr_intf.transport;
  timeout : float;
  on_execute : Smr_intf.op -> unit;
  n : int; (* a member's rank is its index in the transport's [ids] *)
  rank : int; (* this replica's own rank *)
  quorum : int;
  mutable log : entry option array; (* indexed by seq; seqs are dense from 1 *)
  mutable view : int;
  mutable next_seq : int;
  mutable exec_next : int;
  mutable own_requests : request list;
  rids : rid_state Rids.t;
  mutable rid_counter : int;
  mutable viewchange_votes : vc_votes list;
  mutable voted_views : int list;
  mutable stopped : bool;
}

let create ~transport ~timeout ~on_execute =
  {
    tr = transport;
    timeout;
    on_execute;
    n = Array.length transport.Smr_intf.ids;
    rank = Smr_intf.index transport.Smr_intf.ids transport.Smr_intf.self;
    quorum = (2 * transport.Smr_intf.f) + 1;
    log = [||];
    view = 0;
    next_seq = 1;
    exec_next = 1;
    own_requests = [];
    rids = Rids.create 1;
    rid_counter = 0;
    viewchange_votes = [];
    voted_views = [];
    stopped = false;
  }

let view t = t.view

let primary_of t v = t.tr.Smr_intf.ids.(v mod t.n)

let primary t = primary_of t t.view

let rec send_all t m = function
  | [] -> ()
  | dst :: rest ->
    if dst <> t.tr.Smr_intf.self then t.tr.send dst m;
    send_all t m rest

let broadcast t m = send_all t m t.tr.Smr_intf.members

let rid_state t rid =
  match Rids.find t.rids rid with
  | s -> s
  | exception Not_found ->
    let s = { seqs = []; executed_rid = false; watched = None } in
    Rids.replace t.rids rid s;
    s

let rid_executed t rid =
  match Rids.find t.rids rid with s -> s.executed_rid | exception Not_found -> false

let entry_at t seq = if seq < Array.length t.log then t.log.(seq) else None

let entry_for t seq =
  match entry_at t seq with
  | Some e -> e
  | None ->
    if seq >= Array.length t.log then begin
      let log = Array.make (Int.max (seq + 1) (2 * Array.length t.log)) None in
      Array.blit t.log 0 log 0 (Array.length t.log);
      t.log <- log
    end;
    let e =
      {
        view = t.view;
        req = None;
        digest = "";
        prepares = tally t.n;
        commits = tally t.n;
        sent_commit = false;
        committed = false;
        executed = false;
        cert_prepared = false;
      }
    in
    t.log.(seq) <- Some e;
    e

(* Every change of an entry's (view, request) goes through here, so its
   tallies always count the votes for its current (view, digest) and
   the request's id knows the slot. *)
let set_request t seq (e : entry) view req =
  e.view <- view;
  e.req <- Some req;
  e.digest <- req.digest;
  recount e.prepares view req.digest;
  recount e.commits view req.digest;
  let s = rid_state t req.rid in
  if not (List.exists (Int.equal seq) s.seqs) then s.seqs <- seq :: s.seqs

let rec try_execute t =
  match entry_at t t.exec_next with
  | Some e when e.committed && not e.executed ->
    e.executed <- true;
    (match e.req with
    | Some req ->
      let s = rid_state t req.rid in
      let first = (not (String.equal req.op "")) && not s.executed_rid in
      if first then s.executed_rid <- true;
      t.own_requests <- List.filter (fun r -> not (String.equal r.rid req.rid)) t.own_requests;
      s.watched <- None;
      if first then (
        match String.index_opt req.rid '/' with
        | Some i ->
          let origin = int_of_string (String.sub req.rid 0 i) in
          t.on_execute { Smr_intf.origin; payload = req.op }
        | None -> ())
    | None -> ());
    t.exec_next <- t.exec_next + 1;
    try_execute t
  | _ -> ()

(* --- normal case --------------------------------------------------- *)

(* The request already holds an unexecuted slot of the current view. *)
let assigned_in_view t rid =
  match Rids.find t.rids rid with
  | exception Not_found -> false
  | s ->
    List.exists
      (fun seq ->
        match entry_at t seq with
        | Some { req = Some r; executed = false; view; _ } ->
          view = t.view && String.equal r.rid rid
        | _ -> false)
      s.seqs

let rec assign_seq t req =
  if not (rid_executed t req.rid) then begin
    if not (assigned_in_view t req.rid) then begin
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
      set_request t seq e view req;
      e.sent_commit <- false;
      e.committed <- false;
      broadcast t (Prepare { view; seq; digest = e.digest });
      handle_prepare t ~rank:t.rank ~view ~seq ~digest:e.digest
    end
  end

and maybe_advance t seq (e : entry) =
  (* Called whenever a vote lands: check prepared, then committed. *)
  if Option.is_some e.req && not e.executed then begin
    let prepared = e.prepares.count >= t.quorum in
    if prepared && not e.sent_commit then begin
      e.sent_commit <- true;
      broadcast t (Commit { view = e.view; seq; digest = e.digest });
      handle_commit t ~rank:t.rank ~view:e.view ~seq ~digest:e.digest
    end
    else if prepared && (not e.committed) && e.commits.count >= t.quorum then begin
      e.committed <- true;
      try_execute t
    end
  end

and handle_prepare t ~rank ~view ~seq ~digest =
  if view >= t.view && seq >= t.exec_next then begin
    let e = entry_for t seq in
    add_vote e.prepares ~rank ~view ~digest ~key_view:e.view ~key_digest:e.digest;
    maybe_advance t seq e
  end

and handle_commit t ~rank ~view ~seq ~digest =
  if view >= t.view && seq >= t.exec_next then begin
    let e = entry_for t seq in
    add_vote e.commits ~rank ~view ~digest ~key_view:e.view ~key_digest:e.digest;
    maybe_advance t seq e
  end

(* --- view change ---------------------------------------------------- *)

(* Log slots in ascending seq order whose entry passes [keep]: the
   certificates travel inside VIEWCHANGE and NEWVIEW wire messages, so
   identical state must list identically. *)
and certificates t keep =
  let rec go seq acc =
    if seq < 1 then acc
    else
      match t.log.(seq) with
      | Some ({ req = Some req; _ } as e) when keep e -> go (seq - 1) ((seq, req) :: acc)
      | _ -> go (seq - 1) acc
  in
  go (Array.length t.log - 1) []

and prepared_certificates t =
  certificates t (fun e ->
      (not e.executed) && (e.cert_prepared || e.committed || e.prepares.count >= t.quorum))

and vote_viewchange t new_view =
  if (not (List.exists (Int.equal new_view) t.voted_views)) && new_view > t.view then begin
    t.voted_views <- new_view :: t.voted_views;
    let certs = prepared_certificates t in
    broadcast t (Viewchange { new_view; prepared = certs });
    handle_viewchange t ~rank:t.rank ~new_view ~prepared:certs
  end

and handle_viewchange t ~rank ~new_view ~prepared =
  if new_view > t.view then begin
    let votes =
      match List.find_opt (fun v -> v.vc_view = new_view) t.viewchange_votes with
      | Some v -> v
      | None ->
        let v = { vc_view = new_view; voters = Bytes.make t.n '\000'; voter_count = 0 } in
        t.viewchange_votes <- v :: t.viewchange_votes;
        v
    in
    if Bytes.get votes.voters rank = '\000' then begin
      Bytes.set votes.voters rank '\001';
      votes.voter_count <- votes.voter_count + 1
    end;
    List.iter
      (fun (seq, req) ->
        if seq >= t.exec_next then begin
          let e = entry_for t seq in
          if (not e.executed) && Option.is_none e.req then set_request t seq e e.view req;
          e.cert_prepared <- true
        end)
      prepared;
    if votes.voter_count >= t.tr.Smr_intf.f + 1 then vote_viewchange t new_view;
    if votes.voter_count >= t.quorum && new_view > t.view then begin
      if primary_of t new_view = t.tr.self then enter_new_view_as_primary t new_view
    end
  end

and enter_new_view_as_primary t new_view =
  t.view <- new_view;
  let carried (e : entry) = (e.cert_prepared || e.committed) && not e.executed in
  let certs = certificates t carried in
  let max_seq = List.fold_left (fun acc (s, _) -> Int.max acc s) (t.exec_next - 1) certs in
  let assignments = ref [] in
  for seq = max_seq downto t.exec_next do
    let req =
      match entry_at t seq with
      | Some ({ req = Some req; _ } as e) when carried e -> req
      | _ -> request (Printf.sprintf "noop/%d/%d" new_view seq) ""
    in
    assignments := (seq, req) :: !assignments
  done;
  let assignments = !assignments in
  t.next_seq <- max_seq + 1;
  broadcast t (Newview { view = new_view; assignments });
  adopt_assignments t new_view assignments;
  List.iter (fun req -> assign_seq t req) (List.rev t.own_requests);
  (* Sequence numbers are handed out in this order, so it must not
     depend on hash-bucket layout. *)
  List.iter
    (fun req -> assign_seq t req)
    (List.sort
       (fun a b -> String.compare a.rid b.rid)
       (Rids.fold
          (fun _ s acc ->
            match s.watched with Some req when not s.executed_rid -> req :: acc | _ -> acc)
          t.rids []))

and adopt_assignments t new_view assignments =
  t.view <- Int.max t.view new_view;
  List.iter
    (fun (seq, req) ->
      if seq >= t.exec_next then begin
        let e = entry_for t seq in
        if not e.executed then begin
          set_request t seq e new_view req;
          e.sent_commit <- false;
          e.committed <- false;
          broadcast t (Prepare { view = new_view; seq; digest = e.digest });
          handle_prepare t ~rank:t.rank ~view:new_view ~seq ~digest:e.digest
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
      if (not t.stopped) && not (rid_executed t req.rid) then begin
        (* Suspect the primary, and spread the request so that other
           members start watching it too (their timeouts make the
           view-change quorum reachable).  If we already voted a view
           out and its NEW-VIEW never came — the next primary is
           faulty too — escalate past it. *)
        let next = 1 + List.fold_left Int.max t.view t.voted_views in
        vote_viewchange t next;
        broadcast t (Request req);
        arm_timer t req
      end)

(* --- public API ----------------------------------------------------- *)

let propose t op =
  if not t.stopped then begin
    t.rid_counter <- t.rid_counter + 1;
    let req = request (Printf.sprintf "%d/%d" t.tr.self t.rid_counter) op in
    t.own_requests <- req :: t.own_requests;
    if primary t = t.tr.self then assign_seq t req else t.tr.send (primary t) (Request req);
    arm_timer t req
  end

let handle_request t req =
  if not (rid_executed t req.rid) then begin
    if primary t = t.tr.self then assign_seq t req
    else begin
      let s = rid_state t req.rid in
      if Option.is_none s.watched then begin
        (* Relay to the primary and watch: if it never executes, we join
           the view change. *)
        s.watched <- Some req;
        t.tr.send (primary t) (Request req);
        arm_timer t req
      end
    end
  end

let receive t ~src m =
  if not t.stopped then begin
    let rank = Smr_intf.index t.tr.Smr_intf.ids src in
    if rank >= 0 then
      match m with
      | Request req -> handle_request t req
      | Preprepare { view; seq; req } -> handle_preprepare t ~src ~view ~seq ~req
      | Prepare { view; seq; digest } -> handle_prepare t ~rank ~view ~seq ~digest
      | Commit { view; seq; digest } -> handle_commit t ~rank ~view ~seq ~digest
      | Viewchange { new_view; prepared } -> handle_viewchange t ~rank ~new_view ~prepared
      | Newview { view; assignments } -> handle_newview t ~src ~view ~assignments
  end

let stop t = t.stopped <- true

let executed_rids t =
  List.init (t.exec_next - 1) (fun i ->
      match entry_at t (i + 1) with Some { req = Some r; _ } -> r.rid | _ -> "")
