module Trace = Atum_sim.Trace

type t = {
  counts : (string, int) Hashtbl.t;
  depth : (int * int, int) Hashtbl.t;  (* (bid, vgroup) -> hops from the origin vgroup *)
  open_spans : (int, string * float) Hashtbl.t;
  durations : (string, float list) Hashtbl.t;
  mutable hop_depths : float list;
  mutable origin_deliveries : int;
  mutable lost : int;
}

let create () =
  {
    counts = Hashtbl.create 64;
    depth = Hashtbl.create 1024;
    open_spans = Hashtbl.create 64;
    durations = Hashtbl.create 8;
    hop_depths = [];
    origin_deliveries = 0;
    lost = 0;
  }

let bump tbl k n = Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let feed t (e : Trace.event) =
  match e.Trace.kind with
  | "broadcast.sent" when e.Trace.bid >= 0 && e.Trace.vgroup >= 0 ->
    Hashtbl.replace t.depth (e.Trace.bid, e.Trace.vgroup) 0
  | "broadcast.delivered" when e.Trace.bid >= 0 -> t.origin_deliveries <- t.origin_deliveries + 1
  | "bcast.hop" when e.Trace.bid >= 0 -> (
    t.origin_deliveries <- t.origin_deliveries - 1;
    (* A receiving vgroup's depth is its shallowest arrival. *)
    match Hashtbl.find_opt t.depth (e.Trace.bid, e.Trace.parent) with
    | Some d ->
      t.hop_depths <- float_of_int (d + 1) :: t.hop_depths;
      let key = (e.Trace.bid, e.Trace.vgroup) in
      (match Hashtbl.find_opt t.depth key with
      | Some d0 when d0 <= d + 1 -> ()
      | _ -> Hashtbl.replace t.depth key (d + 1))
    | None -> ())
  | kind -> (
    match Atum_workload.Analyze.saga_of_kind kind with
    | Some (name, true) when e.Trace.span >= 0 ->
      Hashtbl.replace t.open_spans e.Trace.span (name, e.Trace.time)
    | Some (_, false) when e.Trace.span >= 0 -> (
      match Hashtbl.find_opt t.open_spans e.Trace.span with
      | Some (name, t0) ->
        Hashtbl.remove t.open_spans e.Trace.span;
        let ds = Option.value (Hashtbl.find_opt t.durations name) ~default:[] in
        Hashtbl.replace t.durations name ((e.Trace.time -. t0) :: ds)
      | None -> ())
    | _ -> ())

let drain t trace =
  Trace.iter trace (feed t);
  List.iter (fun (k, n) -> bump t.counts k n) (Trace.admitted_by_kind trace);
  List.iter (fun (k, n) -> bump t.counts k n) (Trace.sampled_out_by_kind trace);
  t.lost <- t.lost + Trace.dropped trace;
  Trace.clear trace

let count t kind = Option.value (Hashtbl.find_opt t.counts kind) ~default:0
let hops t = List.init (max 0 t.origin_deliveries) (fun _ -> 0.0) @ t.hop_depths
let saga_durations t name = Option.value (Hashtbl.find_opt t.durations name) ~default:[]
let lost t = t.lost
