(* CLRS-style B-tree with minimum degree [t]: every node except the
   root holds between t-1 and 2t-1 keys; insertion splits full nodes
   on the way down, deletion guarantees t keys in every node it
   descends into (borrow or merge), so both are single-pass. *)

type ('k, 'v) node = {
  mutable keys : ('k * 'v) array;
  mutable children : ('k, 'v) node array; (* empty iff leaf *)
}

type ('k, 'v) t = {
  cmp : 'k -> 'k -> int;
  degree : int;
  mutable root : ('k, 'v) node;
  mutable count : int;
}

let leaf node = Array.length node.children = 0

let create ?(degree = 8) ~cmp () =
  if degree < 2 then invalid_arg "Btree.create: degree must be at least 2";
  { cmp; degree; root = { keys = [||]; children = [||] }; count = 0 }

let size t = t.count

let is_empty t = t.count = 0

(* Index of the first key >= k, as one int: the index itself when
   that key equals k, its [lnot] (negative) when it does not.  Lookups
   run on every delivery an index applies, so neither the scan nor its
   result allocates. *)
let rec scan cmp keys k i =
  if i >= Array.length keys then lnot i
  else begin
    let c = cmp k (fst keys.(i)) in
    if c = 0 then i else if c < 0 then lnot i else scan cmp keys k (i + 1)
  end

let locate t node k = scan t.cmp node.keys k 0

let[@inline] index_of r = if r >= 0 then r else lnot r

let rec find_in t node k =
  let r = locate t node k in
  if r >= 0 then Some (snd node.keys.(r))
  else if leaf node then None
  else find_in t node.children.(lnot r) k

let find t k = find_in t t.root k

let mem t k = find t k <> None

(* --- array surgery --------------------------------------------------- *)

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let array_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let array_sub a lo len = Array.sub a lo len

(* --- insertion ------------------------------------------------------- *)

let full t node = Array.length node.keys = (2 * t.degree) - 1

(* Split the full child at index [i] of [parent]; the median key moves
   up into [parent]. *)
let split_child t parent i =
  let child = parent.children.(i) in
  let d = t.degree in
  let median = child.keys.(d - 1) in
  let right =
    {
      keys = array_sub child.keys d (d - 1);
      children = (if leaf child then [||] else array_sub child.children d d);
    }
  in
  child.keys <- array_sub child.keys 0 (d - 1);
  if not (leaf child) then child.children <- array_sub child.children 0 d;
  parent.keys <- array_insert parent.keys i median;
  parent.children <- array_insert parent.children (i + 1) right

let rec insert_nonfull t node k v =
  let r = locate t node k in
  let i = index_of r in
  if r >= 0 then node.keys.(i) <- (k, v) (* replace *)
  else if leaf node then begin
    node.keys <- array_insert node.keys i (k, v);
    t.count <- t.count + 1
  end
  else begin
    let i =
      if full t node.children.(i) then begin
        split_child t node i;
        let c = t.cmp k (fst node.keys.(i)) in
        if c = 0 then begin
          node.keys.(i) <- (k, v);
          -1 (* replaced the promoted median; nothing to descend into *)
        end
        else if c > 0 then i + 1
        else i
      end
      else i
    in
    if i >= 0 then insert_nonfull t node.children.(i) k v
  end

let insert t k v =
  if full t t.root then begin
    let old = t.root in
    let fresh = { keys = [||]; children = [| old |] } in
    t.root <- fresh;
    split_child t fresh 0
  end;
  insert_nonfull t t.root k v

(* --- deletion -------------------------------------------------------- *)

let rec max_binding_of node =
  if leaf node then node.keys.(Array.length node.keys - 1)
  else max_binding_of node.children.(Array.length node.children - 1)

let rec min_binding_of node =
  if leaf node then node.keys.(0) else min_binding_of node.children.(0)

(* Merge children i and i+1 of [node] around separator key i. *)
let merge_children node i =
  let left = node.children.(i) and right = node.children.(i + 1) in
  left.keys <- Array.concat [ left.keys; [| node.keys.(i) |]; right.keys ];
  if not (leaf left) then left.children <- Array.append left.children right.children;
  node.keys <- array_remove node.keys i;
  node.children <- array_remove node.children (i + 1)

(* Guarantee that child [i] of [node] has at least [degree] keys
   before descending into it.  Returns the (possibly changed) index of
   the child to descend into. *)
let reinforce t node i =
  let d = t.degree in
  let child = node.children.(i) in
  if Array.length child.keys >= d then i
  else begin
    let left_ok = i > 0 && Array.length node.children.(i - 1).keys >= d in
    let right_ok =
      i < Array.length node.children - 1 && Array.length node.children.(i + 1).keys >= d
    in
    if left_ok then begin
      (* rotate through the separator from the left sibling *)
      let sib = node.children.(i - 1) in
      let moved = sib.keys.(Array.length sib.keys - 1) in
      child.keys <- array_insert child.keys 0 node.keys.(i - 1);
      node.keys.(i - 1) <- moved;
      sib.keys <- array_sub sib.keys 0 (Array.length sib.keys - 1);
      if not (leaf sib) then begin
        let moved_child = sib.children.(Array.length sib.children - 1) in
        child.children <- array_insert child.children 0 moved_child;
        sib.children <- array_sub sib.children 0 (Array.length sib.children - 1)
      end;
      i
    end
    else if right_ok then begin
      let sib = node.children.(i + 1) in
      let moved = sib.keys.(0) in
      child.keys <- Array.append child.keys [| node.keys.(i) |];
      node.keys.(i) <- moved;
      sib.keys <- array_remove sib.keys 0;
      if not (leaf sib) then begin
        child.children <- Array.append child.children [| sib.children.(0) |];
        sib.children <- array_remove sib.children 0
      end;
      i
    end
    else if i > 0 then begin
      merge_children node (i - 1);
      i - 1
    end
    else begin
      merge_children node i;
      i
    end
  end

let rec remove_from t node k =
  let r = locate t node k in
  let i = index_of r and eq = r >= 0 in
  if leaf node then begin
    if eq then begin
      node.keys <- array_remove node.keys i;
      t.count <- t.count - 1
    end
  end
  else if eq then begin
    let d = t.degree in
    if Array.length node.children.(i).keys >= d then begin
      (* replace with the predecessor, then delete it below *)
      let pk, pv = max_binding_of node.children.(i) in
      node.keys.(i) <- (pk, pv);
      remove_from t node.children.(i) pk
    end
    else if Array.length node.children.(i + 1).keys >= d then begin
      let sk, sv = min_binding_of node.children.(i + 1) in
      node.keys.(i) <- (sk, sv);
      remove_from t node.children.(i + 1) sk
    end
    else begin
      merge_children node i;
      remove_from t node.children.(i) k
    end
  end
  else begin
    let i = reinforce t node i in
    (* After a merge the separator set changed; re-locate. *)
    let r = locate t node k in
    let j = index_of r in
    if r >= 0 then remove_from_internal_hit t node j k
    else remove_from t node.children.(min j (Array.length node.children - 1)) k;
    ignore i
  end

and remove_from_internal_hit t node i k =
  (* The key moved into [node] itself during rebalancing. *)
  let d = t.degree in
  if Array.length node.children.(i).keys >= d then begin
    let pk, pv = max_binding_of node.children.(i) in
    node.keys.(i) <- (pk, pv);
    remove_from t node.children.(i) pk
  end
  else if Array.length node.children.(i + 1).keys >= d then begin
    let sk, sv = min_binding_of node.children.(i + 1) in
    node.keys.(i) <- (sk, sv);
    remove_from t node.children.(i + 1) sk
  end
  else begin
    merge_children node i;
    remove_from t node.children.(i) k
  end

let shrink_root t =
  if Array.length t.root.keys = 0 && not (leaf t.root) then t.root <- t.root.children.(0)

let remove t k =
  if mem t k then begin
    remove_from t t.root k;
    shrink_root t
  end

(* --- traversal -------------------------------------------------------- *)

let min_binding t = if t.count = 0 then None else Some (min_binding_of t.root)

let max_binding t = if t.count = 0 then None else Some (max_binding_of t.root)

let rec iter_node f node =
  if leaf node then Array.iter (fun (k, v) -> f k v) node.keys
  else begin
    let n = Array.length node.keys in
    for i = 0 to n - 1 do
      iter_node f node.children.(i);
      let k, v = node.keys.(i) in
      f k v
    done;
    iter_node f node.children.(n)
  end

let iter f t = if t.count > 0 then iter_node f t.root

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let range t ~lo ~hi =
  let rec collect node acc =
    if leaf node then
      Array.fold_left
        (fun acc (k, v) -> if t.cmp k lo >= 0 && t.cmp k hi <= 0 then (k, v) :: acc else acc)
        acc node.keys
    else begin
      let n = Array.length node.keys in
      let acc = ref acc in
      for i = 0 to n - 1 do
        let k, v = node.keys.(i) in
        (* skip subtrees entirely below lo or above hi *)
        if t.cmp k lo >= 0 then acc := collect node.children.(i) !acc;
        if t.cmp k lo >= 0 && t.cmp k hi <= 0 then acc := (k, v) :: !acc
      done;
      if t.cmp (fst node.keys.(n - 1)) hi < 0 then acc := collect node.children.(n) !acc;
      !acc
    end
  in
  if t.count = 0 then [] else List.rev (collect t.root [])

let height t =
  let rec go node = if leaf node then 1 else 1 + go node.children.(0) in
  if t.count = 0 then 0 else go t.root

(* --- invariants ------------------------------------------------------- *)

let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let counted = ref 0 in
  let max_keys = (2 * t.degree) - 1 and min_keys = t.degree - 1 in
  let rec walk node ~is_root ~depth =
    let nk = Array.length node.keys in
    counted := !counted + nk;
    if nk > max_keys then err "node with %d keys exceeds max %d" nk max_keys;
    if (not is_root) && nk < min_keys then err "node with %d keys below min %d" nk min_keys;
    for i = 0 to nk - 2 do
      if t.cmp (fst node.keys.(i)) (fst node.keys.(i + 1)) >= 0 then
        err "keys out of order within a node"
    done;
    if leaf node then [ depth ]
    else begin
      if Array.length node.children <> nk + 1 then begin
        err "internal node with %d keys has %d children" nk (Array.length node.children);
        []
      end
      else begin
        (* separator ordering *)
        for i = 0 to nk - 1 do
          let sep = fst node.keys.(i) in
          let left_max = fst (max_binding_of node.children.(i)) in
          let right_min = fst (min_binding_of node.children.(i + 1)) in
          if t.cmp left_max sep >= 0 then err "left subtree reaches past separator";
          if t.cmp right_min sep <= 0 then err "right subtree starts before separator"
        done;
        List.concat_map (fun c -> walk c ~is_root:false ~depth:(depth + 1))
          (Array.to_list node.children)
      end
    end
  in
  if t.count > 0 || Array.length t.root.keys > 0 then begin
    let depths = walk t.root ~is_root:true ~depth:0 in
    (match List.sort_uniq compare depths with
    | [] | [ _ ] -> ()
    | _ -> err "leaves at different depths")
  end;
  if !counted <> t.count then err "size %d does not match %d stored keys" t.count !counted;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))
