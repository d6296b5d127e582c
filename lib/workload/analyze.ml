(* Post-hoc causal analysis of a traced run.

   Consumes either a live trace (via [Trace.fold], so the ring is
   never materialized as a list) or an [ATUM_*.json] artifact, and
   reconstructs: per-broadcast dissemination trees from the
   ["bcast.hop"] lineage events (hop-count distribution, first-
   delivery latency CDF, redundancy ratio), per-saga duration
   percentiles from the ["saga.<name>.begin"/".end"] span pairs, and
   the invariant-violation summary from the "monitor.violation.*"
   metrics counters.

   Trace rings drop their oldest events once full, so the analyzer is
   tolerant by construction: hops and deliveries whose
   ["broadcast.sent"] root was overwritten are reported as orphans
   rather than errors, and [dropped_by_kind] is carried through so a
   reader knows which event kinds are incomplete. *)

module Json = Atum_util.Json
module Stats = Atum_util.Stats
module Trace = Atum_sim.Trace
module Metrics = Atum_sim.Metrics

type tree = {
  bid : int;
  origin : int;  (* broadcasting node, -1 if unknown *)
  root_vg : int;  (* origin vgroup, -1 if unknown *)
  sent_at : float;
  deliveries : int;
  dups : int;  (* redundant receives of this bid *)
  depth0 : int;  (* deliveries in the origin vgroup (SMR phase) *)
  max_depth : int;  (* deepest gossip hop in the tree *)
  incomplete_hops : int;  (* hops whose sender depth was unknown *)
}

type saga_stats = {
  saga : string;
  completed : int;
  unmatched : int;  (* begun but never ended within the trace window *)
  d_p50 : float;
  d_p90 : float;
  d_max : float;
}

type result = {
  trees : tree list;  (* sorted by bid; only bids with a known root *)
  orphan_bids : int;  (* bids with hops/deliveries but no root event *)
  deliveries : int;
  dups : int;
  redundancy : float;  (* dups / deliveries *)
  hop_hist : (int * int) list;  (* depth -> first-delivery count *)
  latency_cdf : (float * float) list;  (* empirical first-delivery CDF *)
  latency_p : (string * float) list;  (* p50/p90/p99/max *)
  sagas : saga_stats list;  (* sorted by saga name *)
  violations : (string * int) list;  (* monitor.violation.* counters *)
  violations_total : int;
  byzantine_events : (string * int) list;  (* byzantine.* trace kinds *)
  fault_events : (string * int) list;  (* fault.* trace kinds *)
  events_seen : int;
  dropped_total : int;
  dropped_by_kind : (string * int) list;
  window : bool;  (* a postmortem window: the dropped events precede it *)
  sample_rate : float;
  sampled_out_total : int;
  sampled_out_by_kind : (string * int) list;
  trace_truncated : bool;
}

(* ------------------------------------------------------------------ *)
(* Accumulator                                                         *)
(* ------------------------------------------------------------------ *)

type root = { r_node : int; r_vg : int; r_time : float }

type acc = {
  roots : (int, root) Hashtbl.t; (* bid -> broadcast.sent *)
  depth : (int * int, int) Hashtbl.t; (* (bid, vg) -> hop depth *)
  hop_counts : (int, int) Hashtbl.t; (* depth -> first deliveries at that depth *)
  deliv : (int, int) Hashtbl.t; (* bid -> total deliveries *)
  hop_deliv : (int, int) Hashtbl.t; (* bid -> gossip-hop deliveries *)
  dup : (int, int) Hashtbl.t; (* bid -> redundant receives *)
  max_depth : (int, int) Hashtbl.t; (* bid -> deepest hop *)
  incomplete : (int, int) Hashtbl.t; (* bid -> hops with unknown sender depth *)
  mutable latencies : float list; (* newest first *)
  open_spans : (int, string * float) Hashtbl.t; (* span -> (saga, t0) *)
  saga_durations : (string, float list ref) Hashtbl.t;
  saga_unmatched : (string, int ref) Hashtbl.t;
  viol_events : (string, int) Hashtbl.t; (* violation kind -> trace events *)
  byz_events : (string, int) Hashtbl.t; (* byzantine.* kind -> trace events *)
  flt_events : (string, int) Hashtbl.t; (* fault.* kind -> trace events *)
  mutable seen : int;
}

let make_acc () =
  {
    roots = Hashtbl.create 64;
    depth = Hashtbl.create 256;
    hop_counts = Hashtbl.create 16;
    deliv = Hashtbl.create 64;
    hop_deliv = Hashtbl.create 64;
    dup = Hashtbl.create 64;
    max_depth = Hashtbl.create 64;
    incomplete = Hashtbl.create 16;
    latencies = [];
    open_spans = Hashtbl.create 256;
    saga_durations = Hashtbl.create 16;
    saga_unmatched = Hashtbl.create 16;
    viol_events = Hashtbl.create 8;
    byz_events = Hashtbl.create 8;
    flt_events = Hashtbl.create 8;
    seen = 0;
  }

let bump tbl key by =
  Hashtbl.replace tbl key (by + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let raise_to tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some old when old >= v -> ()
  | _ -> Hashtbl.replace tbl key v

let violation_prefix = "monitor.violation."

let strip_prefix name =
  String.sub name (String.length violation_prefix)
    (String.length name - String.length violation_prefix)

let has_violation_prefix name =
  String.length name > String.length violation_prefix
  && String.sub name 0 (String.length violation_prefix) = violation_prefix

let has_prefix prefix name =
  String.length name > String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

(* Kind "saga.<name>.begin" / "saga.<name>.end" -> (<name>, is_begin) *)
let saga_of_kind kind =
  if String.length kind > 5 && String.sub kind 0 5 = "saga." then
    let rest = String.sub kind 5 (String.length kind - 5) in
    match String.rindex_opt rest '.' with
    | Some i -> (
      let name = String.sub rest 0 i in
      match String.sub rest (i + 1) (String.length rest - i - 1) with
      | "begin" -> Some (name, true)
      | "end" -> Some (name, false)
      | _ -> None)
    | None -> None
  else None

(* Events arrive oldest-first (the trace is written in simulated-time
   order), which is what the depth propagation below relies on. *)
let feed acc (e : Trace.event) =
  acc.seen <- acc.seen + 1;
  match e.kind with
  | "broadcast.sent" when e.bid >= 0 ->
    Hashtbl.replace acc.roots e.bid { r_node = e.node; r_vg = e.vgroup; r_time = e.time };
    if e.vgroup >= 0 then Hashtbl.replace acc.depth (e.bid, e.vgroup) 0
  | "broadcast.delivered" when e.bid >= 0 ->
    bump acc.deliv e.bid 1;
    (match Hashtbl.find_opt acc.roots e.bid with
    | Some r -> acc.latencies <- (e.time -. r.r_time) :: acc.latencies
    | None -> ())
  | "bcast.hop" when e.bid >= 0 ->
    bump acc.hop_deliv e.bid 1;
    (match Hashtbl.find_opt acc.depth (e.bid, e.parent) with
    | Some dparent ->
      (* This delivery travelled depth(sender vgroup) + 1 hops.  The
         receiving vgroup's depth — what *its* children inherit — is
         its shallowest arrival, so a later longer path never shortens
         or stretches an already-established subtree. *)
      let d = dparent + 1 in
      bump acc.hop_counts d 1;
      if e.vgroup >= 0 then (
        match Hashtbl.find_opt acc.depth (e.bid, e.vgroup) with
        | Some d0 when d0 <= d -> ()
        | _ -> Hashtbl.replace acc.depth (e.bid, e.vgroup) d);
      raise_to acc.max_depth e.bid d
    | None ->
      (* The sender's depth never became known (its own hop or the
         root was dropped from the ring): count, don't guess. *)
      bump acc.incomplete e.bid 1)
  | "bcast.dup" when e.bid >= 0 -> bump acc.dup e.bid 1
  | k when has_violation_prefix k -> bump acc.viol_events (strip_prefix k) 1
  (* Chaos-layer lineage: adversary activity and injected faults keep
     their full kind so equivocation vs. selective drops vs. targeting
     attempts stay distinguishable in the summary. *)
  | k when has_prefix "byzantine." k -> bump acc.byz_events k 1
  | k when has_prefix "fault." k -> bump acc.flt_events k 1
  | _ -> (
    match saga_of_kind e.kind with
    | Some (name, true) when e.span >= 0 ->
      Hashtbl.replace acc.open_spans e.span (name, e.time)
    | Some (_, false) when e.span >= 0 -> (
      match Hashtbl.find_opt acc.open_spans e.span with
      | Some (name, t0) ->
        Hashtbl.remove acc.open_spans e.span;
        let r =
          match Hashtbl.find_opt acc.saga_durations name with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace acc.saga_durations name r;
            r
        in
        r := (e.time -. t0) :: !r
      | None -> (* begin dropped by ring wrap *) ())
    | _ -> ())

let finish acc ~violations ~dropped_total ~dropped_by_kind ?(window = false) ?(sample_rate = 1.0)
    ?(sampled_out_total = 0) ?(sampled_out_by_kind = []) () =
  Hashtbl.iter
    (fun _ (name, _) ->
      let r =
        match Hashtbl.find_opt acc.saga_unmatched name with
        | Some r -> r
        | None ->
          let r = ref 0 in
          Hashtbl.replace acc.saga_unmatched name r;
          r
      in
      incr r)
    acc.open_spans;
  let trees =
    List.sort compare (Hashtbl.fold (fun bid _ acc' -> bid :: acc') acc.roots [])
    |> List.map (fun bid ->
           let r = Hashtbl.find acc.roots bid in
           let deliveries = Option.value ~default:0 (Hashtbl.find_opt acc.deliv bid) in
           let hop_d = Option.value ~default:0 (Hashtbl.find_opt acc.hop_deliv bid) in
           {
             bid;
             origin = r.r_node;
             root_vg = r.r_vg;
             sent_at = r.r_time;
             deliveries;
             dups = Option.value ~default:0 (Hashtbl.find_opt acc.dup bid);
             depth0 = max 0 (deliveries - hop_d);
             max_depth = Option.value ~default:0 (Hashtbl.find_opt acc.max_depth bid);
             incomplete_hops = Option.value ~default:0 (Hashtbl.find_opt acc.incomplete bid);
           })
  in
  let orphan_bids =
    let known bid = Hashtbl.mem acc.roots bid in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun src ->
        Hashtbl.iter (fun bid _ -> if not (known bid) then Hashtbl.replace tbl bid ()) src)
      [ acc.deliv; acc.hop_deliv; acc.dup ];
    Hashtbl.length tbl
  in
  let deliveries = Hashtbl.fold (fun _ n a -> a + n) acc.deliv 0 in
  let dups = Hashtbl.fold (fun _ n a -> a + n) acc.dup 0 in
  let depth0_total =
    List.fold_left (fun a tr -> a + tr.depth0) 0 trees
  in
  let hop_hist =
    let base = if depth0_total > 0 then [ (0, depth0_total) ] else [] in
    List.sort compare
      (Hashtbl.fold (fun d n l -> (d, n) :: l) acc.hop_counts base)
  in
  let latencies = List.rev acc.latencies in
  let latency_cdf = if latencies = [] then [] else Stats.cdf latencies in
  let latency_p =
    if latencies = [] then []
    else
      [
        ("p50", Stats.percentile latencies 50.0);
        ("p90", Stats.percentile latencies 90.0);
        ("p99", Stats.percentile latencies 99.0);
        ("max", Stats.percentile latencies 100.0);
      ]
  in
  let saga_names =
    let tbl = Hashtbl.create 16 in
    Hashtbl.iter (fun n _ -> Hashtbl.replace tbl n ()) acc.saga_durations;
    Hashtbl.iter (fun n _ -> Hashtbl.replace tbl n ()) acc.saga_unmatched;
    List.sort compare (Hashtbl.fold (fun n () l -> n :: l) tbl [])
  in
  let sagas =
    List.map
      (fun name ->
        let ds =
          match Hashtbl.find_opt acc.saga_durations name with
          | Some r -> List.rev !r
          | None -> []
        in
        let unmatched =
          match Hashtbl.find_opt acc.saga_unmatched name with Some r -> !r | None -> 0
        in
        let p q = if ds = [] then 0.0 else Stats.percentile ds q in
        {
          saga = name;
          completed = List.length ds;
          unmatched;
          d_p50 = p 50.0;
          d_p90 = p 90.0;
          d_max = p 100.0;
        })
      saga_names
  in
  (* The metrics counters can undercount: workloads may clear the
     metrics mid-run (Latency_exp does, to isolate its own deliveries)
     without touching the trace.  Per kind, trust whichever source saw
     more — counter vs. violation events still in the window plus
     those the ring dropped. *)
  let violations =
    let tbl = Hashtbl.create 8 in
    List.iter (fun (k, n) -> Hashtbl.replace tbl k n) violations;
    let traced = Hashtbl.copy acc.viol_events in
    List.iter
      (fun (kind, n) ->
        if has_violation_prefix kind then
          bump traced (strip_prefix kind) n)
      dropped_by_kind;
    Hashtbl.iter
      (fun k n ->
        if n > Option.value ~default:0 (Hashtbl.find_opt tbl k) then
          Hashtbl.replace tbl k n)
      traced;
    List.sort compare (Hashtbl.fold (fun k n l -> (k, n) :: l) tbl [])
  in
  {
    trees;
    orphan_bids;
    deliveries;
    dups;
    redundancy = (if deliveries = 0 then 0.0 else float_of_int dups /. float_of_int deliveries);
    hop_hist;
    latency_cdf;
    latency_p;
    sagas;
    violations;
    violations_total = List.fold_left (fun a (_, n) -> a + n) 0 violations;
    byzantine_events =
      Atum_util.Hashtbl_ext.sorted_bindings ~cmp:String.compare acc.byz_events;
    fault_events =
      Atum_util.Hashtbl_ext.sorted_bindings ~cmp:String.compare acc.flt_events;
    events_seen = acc.seen;
    dropped_total;
    dropped_by_kind;
    window;
    sample_rate;
    sampled_out_total;
    sampled_out_by_kind;
    trace_truncated = dropped_total > 0 || sampled_out_total > 0;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The monitor.violation.* metrics counters, by violation kind. *)
let violations_of counters =
  List.filter_map
    (fun (name, n) -> if has_violation_prefix name then Some (strip_prefix name, n) else None)
    counters
  |> List.sort compare

let of_trace trace ~metrics =
  let acc = make_acc () in
  Trace.iter trace (feed acc);
  let violations = violations_of (Metrics.snapshot metrics).Metrics.snap_counters in
  finish acc ~violations ~dropped_total:(Trace.dropped trace)
    ~dropped_by_kind:(Trace.dropped_by_kind trace)
    ~sample_rate:(Trace.sample_rate trace) ~sampled_out_total:(Trace.sampled_out trace)
    ~sampled_out_by_kind:(Trace.sampled_out_by_kind trace) ()

let of_artifact a =
  match Atum_sim.Artifact.traced a with
  | None ->
    Error "artifact carries no trace (analyze reads ATUM_<cmd>.json runs and postmortems)"
  | Some (tr, m, _) ->
    let acc = make_acc () in
    List.iter (feed acc) tr.events;
    let window = match a with Atum_sim.Artifact.Postmortem _ -> true | _ -> false in
    Ok
      (finish acc ~violations:(violations_of m.counters) ~dropped_total:(max 0 tr.dropped)
         ~dropped_by_kind:tr.dropped_by_kind ~window ~sample_rate:tr.sample_rate
         ~sampled_out_total:(max 0 tr.sampled_out)
         ~sampled_out_by_kind:tr.sampled_out_by_kind ())

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let tree_to_json tr =
  Json.Obj
    [
      ("bid", Json.Int tr.bid);
      ("origin", Json.Int tr.origin);
      ("root_vg", Json.Int tr.root_vg);
      ("sent_at", Json.Float tr.sent_at);
      ("deliveries", Json.Int tr.deliveries);
      ("dups", Json.Int tr.dups);
      ("depth0", Json.Int tr.depth0);
      ("max_depth", Json.Int tr.max_depth);
      ("incomplete_hops", Json.Int tr.incomplete_hops);
    ]

let to_json r =
  Json.Obj
    [
      ("trees", Json.Int (List.length r.trees));
      ("broadcasts", Json.List (List.map tree_to_json r.trees));
      ("orphan_bids", Json.Int r.orphan_bids);
      ("deliveries", Json.Int r.deliveries);
      ("dups", Json.Int r.dups);
      ("redundancy", Json.Float r.redundancy);
      ( "hop_hist",
        Json.Obj (List.map (fun (d, n) -> (string_of_int d, Json.Int n)) r.hop_hist) );
      ( "latency_cdf",
        Json.List
          (List.map (fun (v, f) -> Json.List [ Json.Float v; Json.Float f ]) r.latency_cdf)
      );
      ( "latency_percentiles",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.latency_p) );
      ( "sagas",
        Json.Obj
          (List.map
             (fun s ->
               ( s.saga,
                 Json.Obj
                   [
                     ("completed", Json.Int s.completed);
                     ("unmatched", Json.Int s.unmatched);
                     ("p50", Json.Float s.d_p50);
                     ("p90", Json.Float s.d_p90);
                     ("max", Json.Float s.d_max);
                   ] ))
             r.sagas) );
      ( "violations",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.violations) );
      ("violations_total", Json.Int r.violations_total);
      ( "byzantine_events",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.byzantine_events) );
      ( "fault_events",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.fault_events) );
      ("events_seen", Json.Int r.events_seen);
      ("dropped_total", Json.Int r.dropped_total);
      ( "dropped_by_kind",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.dropped_by_kind) );
      ("trace_truncated", Json.Bool r.trace_truncated);
      ( "sampling",
        Json.Obj
          [
            ("rate", Json.Float r.sample_rate);
            ("sampled_out", Json.Int r.sampled_out_total);
            ( "sampled_out_by_kind",
              Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.sampled_out_by_kind) );
            (* When true, CDFs, hop histograms and redundancy above are
               estimates over the surviving fraction, not exact counts. *)
            ("estimates", Json.Bool r.trace_truncated);
          ] );
    ]

let pp ppf r =
  let open Format in
  fprintf ppf "broadcast trees: %d (%d orphan bids)@," (List.length r.trees) r.orphan_bids;
  fprintf ppf "deliveries: %d, redundant receives: %d (redundancy %.3f)@," r.deliveries
    r.dups r.redundancy;
  if r.hop_hist <> [] then begin
    fprintf ppf "hop distribution:@,";
    List.iter
      (fun (d, n) -> fprintf ppf "  depth %d: %d deliveries@," d n)
      r.hop_hist
  end;
  if r.latency_p <> [] then begin
    fprintf ppf "first-delivery latency:";
    List.iter (fun (k, v) -> fprintf ppf " %s=%.4fs" k v) r.latency_p;
    fprintf ppf "@,"
  end;
  if r.trees <> [] then begin
    fprintf ppf "per-broadcast:@,";
    List.iter
      (fun tr ->
        fprintf ppf
          "  bid %d: %d deliveries (depth0 %d, max depth %d), %d dups%s@," tr.bid
          tr.deliveries tr.depth0 tr.max_depth tr.dups
          (if tr.incomplete_hops > 0 then
             Printf.sprintf ", %d hops unattributed" tr.incomplete_hops
           else ""))
      r.trees
  end;
  if r.sagas <> [] then begin
    fprintf ppf "sagas:@,";
    List.iter
      (fun s ->
        fprintf ppf "  %-8s completed %5d  unmatched %3d  p50 %.3fs  p90 %.3fs  max %.3fs@,"
          s.saga s.completed s.unmatched s.d_p50 s.d_p90 s.d_max)
      r.sagas
  end;
  if r.violations = [] then fprintf ppf "invariant violations: none@,"
  else begin
    fprintf ppf "invariant violations: %d@," r.violations_total;
    List.iter (fun (k, n) -> fprintf ppf "  %s: %d@," k n) r.violations
  end;
  if r.byzantine_events <> [] then begin
    fprintf ppf "adversary activity:@,";
    List.iter (fun (k, n) -> fprintf ppf "  %s: %d@," k n) r.byzantine_events
  end;
  if r.fault_events <> [] then begin
    fprintf ppf "injected faults:@,";
    List.iter (fun (k, n) -> fprintf ppf "  %s: %d@," k n) r.fault_events
  end;
  if r.dropped_total > 0 then begin
    if r.window then
      fprintf ppf "trace incomplete: %d events precede the flight-recorder window@,"
        r.dropped_total
    else fprintf ppf "trace incomplete: %d events dropped by ring wrap@," r.dropped_total;
    List.iter (fun (k, n) -> fprintf ppf "  dropped %s: %d@," k n) r.dropped_by_kind
  end;
  if r.sampled_out_total > 0 then begin
    fprintf ppf "trace sampled: %d events suppressed (rate %.3f)@," r.sampled_out_total
      r.sample_rate;
    List.iter (fun (k, n) -> fprintf ppf "  sampled out %s: %d@," k n)
      r.sampled_out_by_kind
  end;
  if r.trace_truncated then
    fprintf ppf
      "NOTE: trace is lossy — CDFs, hop histogram and redundancy are estimates@,"
