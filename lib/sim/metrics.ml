type t = {
  counters : (string, int ref) Hashtbl.t;
  series : (string, float list ref) Hashtbl.t; (* stored reversed *)
  mutable generation : int; (* bumped by [clear], which orphans every cell *)
}

let create () = { counters = Hashtbl.create 32; series = Hashtbl.create 32; generation = 0 }

(* [Hashtbl.find] rather than [find_opt]: counters are bumped on every
   simulated message, and the option box would be its only allocation. *)
let incr ?(by = 1) t name =
  match Hashtbl.find t.counters name with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.replace t.counters name (ref by)

(* A handle caches its counter's cell and the generation it was found
   in; [clear] starts a new generation, so the next [bump] looks the
   name up again.  The cell is created on the first bump, as [incr]
   would, so holding a handle adds no counter. *)
type handle = { owner : t; name : string; mutable cell : int ref; mutable gen : int }

let handle t name = { owner = t; name; cell = ref 0; gen = -1 }

let bump ?(by = 1) h =
  if h.gen <> h.owner.generation then begin
    (match Hashtbl.find h.owner.counters h.name with
    | r -> h.cell <- r
    | exception Not_found ->
      let r = ref 0 in
      Hashtbl.replace h.owner.counters h.name r;
      h.cell <- r);
    h.gen <- h.owner.generation
  end;
  h.cell := !(h.cell) + by

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let observe t name x =
  match Hashtbl.find_opt t.series name with
  | Some r -> r := x :: !r
  | None -> Hashtbl.replace t.series name (ref [ x ])

(* A series handle, like a counter handle: the cell is cached per
   generation and created at the first [record]. *)
type series = { s_owner : t; s_name : string; mutable s_cell : float list ref; mutable s_gen : int }

let series t name = { s_owner = t; s_name = name; s_cell = ref []; s_gen = -1 }

let record h x =
  if h.s_gen <> h.s_owner.generation then begin
    (match Hashtbl.find h.s_owner.series h.s_name with
    | r -> h.s_cell <- r
    | exception Not_found ->
      let r = ref [] in
      Hashtbl.replace h.s_owner.series h.s_name r;
      h.s_cell <- r);
    h.s_gen <- h.s_owner.generation
  end;
  h.s_cell := x :: !(h.s_cell)

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
  Hashtbl.reset t.series;
  t.generation <- t.generation + 1

(* ------------------------------------------------------------------ *)
(* Snapshot / merge                                                    *)
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
