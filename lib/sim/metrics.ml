type t = {
  counters : (string, int ref) Hashtbl.t;
  series : (string, float list ref) Hashtbl.t; (* stored reversed *)
}

let create () = { counters = Hashtbl.create 32; series = Hashtbl.create 32 }

(* [Hashtbl.find] rather than [find_opt]: counters are bumped on every
   simulated message, and the option box would be its only allocation. *)
let incr ?(by = 1) t name =
  match Hashtbl.find t.counters name with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let observe t name x =
  match Hashtbl.find_opt t.series name with
  | Some r -> r := x :: !r
  | None -> Hashtbl.replace t.series name (ref [ x ])

let samples t name =
  match Hashtbl.find_opt t.series name with Some r -> List.rev !r | None -> []

let series_names t = Atum_util.Hashtbl_ext.sorted_keys ~cmp:String.compare t.series

let counter_names t = Atum_util.Hashtbl_ext.sorted_keys ~cmp:String.compare t.counters

(* Integer addition commutes, so the unsorted traversal cannot leak
   hash order into the result — unlike [counter_names], this is safe
   to call on a per-sample hot path. *)
let prefix_total t prefix =
  Hashtbl.fold
    (fun name r acc -> if String.starts_with ~prefix name then acc + !r else acc)
    t.counters 0

let clear t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.series

(* ------------------------------------------------------------------ *)
(* Snapshot / merge / JSON export                                      *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_counters : (string * int) list;
  snap_series : (string * float list) list;
}

let snapshot t =
  {
    snap_counters = List.map (fun k -> (k, counter t k)) (counter_names t);
    snap_series = List.map (fun k -> (k, samples t k)) (series_names t);
  }

let merge ~into src =
  List.iter (fun (k, v) -> incr ~by:v into k) (snapshot src).snap_counters;
  List.iter
    (fun (k, xs) -> List.iter (observe into k) xs)
    (snapshot src).snap_series

let series_summary_json xs =
  let open Atum_util.Json in
  let n = List.length xs in
  if n = 0 then Obj [ ("n", Int 0) ]
  else
    Obj
      [
        ("n", Int n);
        ("mean", Float (Atum_util.Stats.mean xs));
        ("p50", Float (Atum_util.Stats.percentile xs 50.0));
        ("p99", Float (Atum_util.Stats.percentile xs 99.0));
      ]

let to_json ?(include_series = false) t =
  let open Atum_util.Json in
  let snap = snapshot t in
  let counters = List.map (fun (k, v) -> (k, Int v)) snap.snap_counters in
  let series =
    List.map
      (fun (k, xs) ->
        let summary = series_summary_json xs in
        let v =
          if include_series then
            match summary with
            | Obj fields -> Obj (fields @ [ ("samples", List (List.map (fun x -> Float x) xs)) ])
            | j -> j
          else summary
        in
        (k, v))
      snap.snap_series
  in
  Obj [ ("counters", Obj counters); ("series", Obj series) ]

let of_json json =
  let open Atum_util.Json in
  let t = create () in
  let err msg = Error ("Metrics.of_json: " ^ msg) in
  match json with
  | Obj _ ->
    let counters = Option.value ~default:(Obj []) (member "counters" json) in
    let series = Option.value ~default:(Obj []) (member "series" json) in
    (match (counters, series) with
    | Obj cs, Obj ss ->
      let bad = ref None in
      List.iter
        (fun (k, v) ->
          match v with
          | Int n -> incr ~by:n t k
          | _ -> bad := Some ("counter " ^ k ^ " is not an integer"))
        cs;
      List.iter
        (fun (k, v) ->
          match member "samples" v with
          | Some (List xs) ->
            List.iter
              (fun x ->
                match x with
                | Float f -> observe t k f
                | Int i -> observe t k (float_of_int i)
                | _ -> bad := Some ("sample in " ^ k ^ " is not a number"))
              xs
          | Some _ -> bad := Some ("samples of " ^ k ^ " is not a list")
          | None -> () (* summary-only export: series cannot be restored *))
        ss;
      (match !bad with None -> Ok t | Some msg -> err msg)
    | _ -> err "counters/series must be objects")
  | _ -> err "expected an object"

let pp_summary fmt t =
  let counters = Atum_util.Hashtbl_ext.sorted_bindings ~cmp:String.compare t.counters in
  List.iter (fun (k, r) -> Format.fprintf fmt "%-40s %d@." k !r) counters;
  List.iter
    (fun name ->
      let xs = samples t name in
      if xs <> [] then
        Format.fprintf fmt "%-40s n=%d mean=%.4f p50=%.4f p99=%.4f@." name
          (List.length xs) (Atum_util.Stats.mean xs)
          (Atum_util.Stats.percentile xs 50.0)
          (Atum_util.Stats.percentile xs 99.0))
    (series_names t)
