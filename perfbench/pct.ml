(* Percentiles that always travel with their sample count, so a
   reported tail is never read without knowing whether the sample can
   support it. *)

type t = { n : int; p50 : float; p90 : float; p99 : float; max : float }

let empty = { n = 0; p50 = 0.0; p90 = 0.0; p99 = 0.0; max = 0.0 }

let of_list = function
  | [] -> empty
  | xs ->
    let p = Atum_util.Stats.percentile xs in
    { n = List.length xs; p50 = p 50.0; p90 = p 90.0; p99 = p 99.0; max = p 100.0 }

(* A percentile is supported when at least ten samples lie beyond it. *)
let supports t ~p = float_of_int t.n *. (100.0 -. p) >= 1000.0
