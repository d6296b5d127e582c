type key = { owner : string; name : string }

let compare_key a b =
  match String.compare a.owner b.owner with 0 -> String.compare a.name b.name | c -> c

(* Backed by the B-tree store (Atum_util.Btree) — the ordered KV
   engine standing in for the paper's SQLite (§4.2.2). *)
type 'a t = ('a kv_tree) ref
and 'a kv_tree = (key, 'a) Atum_util.Btree.t

let create () = ref (Atum_util.Btree.create ~degree:8 ~cmp:compare_key ())

let put t k v = Atum_util.Btree.insert !t k v

let get t k = Atum_util.Btree.find !t k

let mem t k = Atum_util.Btree.mem !t k

let remove t k = Atum_util.Btree.remove !t k

let size t = Atum_util.Btree.size !t

let keys t = List.map fst (Atum_util.Btree.to_list !t)

let fold f t init = Atum_util.Btree.fold f !t init

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then true
  else begin
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  end

let search t term =
  List.rev
    (fold
       (fun k v acc ->
         if contains_substring ~needle:term k.owner || contains_substring ~needle:term k.name
         then (k, v) :: acc
         else acc)
       t [])

(* --- snapshot codec -------------------------------------------------- *)

module Json = Atum_util.Json

let of_json value_of_json j =
  match j with
  | Json.List items ->
    let t = create () in
    let ok =
      List.for_all
        (fun item ->
          match
            ( Json.member "owner" item,
              Json.member "name" item,
              Json.member "value" item )
          with
          | Some (Json.String owner), Some (Json.String name), Some v -> (
            match value_of_json v with
            | Some value ->
              put t { owner; name } value;
              true
            | None -> false)
          | _ -> false)
        items
    in
    if ok then Some t else None
  | _ -> None

let owner_files t owner =
  (* Range scan over the owner's namespace: keys are ordered by owner
     first, so the whole namespace is one contiguous B-tree range. *)
  Atum_util.Btree.range !t ~lo:{ owner; name = "" } ~hi:{ owner; name = "\xff\xff\xff\xff" }
