type t = {
  bits : int;
  replicas : int;
  ring : (int * int) array; (* (position, node), sorted by position *)
  positions : (int, int) Hashtbl.t;
  fingers : (int, int array) Hashtbl.t; (* node -> finger targets (node ids) *)
  successors : (int, int array) Hashtbl.t; (* node -> successor list *)
  dead : (int, unit) Hashtbl.t;
  byz : (int, unit) Hashtbl.t;
  rng : Atum_util.Rng.t; (* retry entry points *)
}

type lookup_result = { responsible : int option; hops : int; detours : int }



let hash_to_position ~bits s =
  let raw = Atum_crypto.Sha256.digest s in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code raw.[i]
  done;
  !v land ((1 lsl bits) - 1)

(* First ring entry at or after [p] (circular). *)
let successor_entry ring (p : int) =
  let n = Array.length ring in
  let rec search lo hi =
    if lo >= hi then lo else begin
      let mid = (lo + hi) / 2 in
      if fst ring.(mid) < p then search (mid + 1) hi else search lo mid
    end
  in
  let i = search 0 n in
  ring.(i mod n)

let build ?(bits = 30) ?(replicas = 4) ~node_ids () =
  if node_ids = [] then invalid_arg "Dht.build: need at least one node";
  if replicas < 1 then invalid_arg "Dht.build: replicas must be at least 1";
  let positions = Hashtbl.create 64 in
  let used = Hashtbl.create 64 in
  List.iter
    (fun nid ->
      (* resolve the (unlikely) position collisions deterministically *)
      let rec place salt =
        let p = hash_to_position ~bits (Printf.sprintf "dht-node-%d-%d" nid salt) in
        if Hashtbl.mem used p then place (salt + 1) else p
      in
      let p = place 0 in
      Hashtbl.replace used p ();
      Hashtbl.replace positions nid p)
    node_ids;
  let ring =
    Array.of_list
      (List.sort
         (fun (p, a) (q, b) -> match Int.compare p q with 0 -> Int.compare a b | c -> c)
         (List.map (fun nid -> (Hashtbl.find positions nid, nid)) node_ids))
  in
  let n = Array.length ring in
  let fingers = Hashtbl.create 64 in
  let successors = Hashtbl.create 64 in
  Array.iteri
    (fun idx (p, nid) ->
      let f =
        Array.init bits (fun i -> snd (successor_entry ring ((p + (1 lsl i)) land ((1 lsl bits) - 1))))
      in
      Hashtbl.replace fingers nid f;
      let s = Array.init (min n (replicas + 2)) (fun i -> snd ring.((idx + 1 + i) mod n)) in
      Hashtbl.replace successors nid s)
    ring;
  {
    bits;
    replicas;
    ring;
    positions;
    fingers;
    successors;
    dead = Hashtbl.create 16;
    byz = Hashtbl.create 16;
    rng = Atum_util.Rng.create (Hashtbl.hash (bits, replicas, List.length node_ids));
  }

let size t = Array.length t.ring - Hashtbl.length t.dead

let position_of t nid =
  match Hashtbl.find_opt t.positions nid with
  | Some p -> p
  | None -> invalid_arg "Dht.position_of: unknown node"

let key_position t key = hash_to_position ~bits:t.bits ("dht-key-" ^ key)

let holders t key =
  let kp = key_position t key in
  let n = Array.length t.ring in
  let start =
    let rec search lo hi =
      if lo >= hi then lo else begin
        let mid = (lo + hi) / 2 in
        if fst t.ring.(mid) < kp then search (mid + 1) hi else search lo mid
      end
    in
    search 0 n mod n
  in
  List.init (min t.replicas n) (fun i -> snd t.ring.((start + i) mod n))

let mark_dead t nid = Hashtbl.replace t.dead nid ()

let mark_byzantine t nid = Hashtbl.replace t.byz nid ()

let alive t nid = not (Hashtbl.mem t.dead nid)

let usable t nid = alive t nid && not (Hashtbl.mem t.byz nid)

(* circular interval (a, b] *)
let between ~a ~b (p : int) = if a < b then a < p && p <= b else p > a || p <= b

(* One recursive routing attempt.  Dead nodes are detectable (requests
   time out), so routes detour around them; a quiet Byzantine node is
   indistinguishable from a correct one until the query lands on it
   and silently dies — that is the whole problem the paper's footnote
   alludes to. *)
let attempt t ~from ~kp ~key_holders ~hops ~detours =
  let budget = 8 * t.bits in
  let rec route current steps =
    if Hashtbl.mem t.byz current then `Dropped
    else if List.mem current key_holders && usable t current then `Found current
    else if steps > budget then `Exhausted
    else begin
      let cp = position_of t current in
      let fingers = Hashtbl.find t.fingers current in
      let best = ref None in
      Array.iter
        (fun f ->
          if f <> current && between ~a:cp ~b:kp (position_of t f) then begin
            if alive t f then begin
              match !best with
              | Some b when not (between ~a:(position_of t b) ~b:kp (position_of t f)) -> ()
              | _ -> best := Some f
            end
            else incr detours
          end)
        fingers;
      match !best with
      | Some next when next <> current ->
        incr hops;
        route next (steps + 1)
      | _ ->
        let succs = Hashtbl.find t.successors current in
        let next =
          Array.fold_left
            (fun acc s ->
              match acc with
              | Some _ -> acc
              | None ->
                if s = current then None
                else if alive t s then Some s
                else begin
                  incr detours;
                  None
                end)
            None succs
        in
        (match next with
        | Some next ->
          incr hops;
          route next (steps + 1)
        | None -> `Exhausted)
    end
  in
  route from 0

let random_alive t =
  let candidates =
    Array.to_list t.ring
    |> List.filter_map (fun (_, nid) -> if alive t nid then Some nid else None)
  in
  Atum_util.Rng.pick t.rng candidates

let lookup t ~from ~key =
  let kp = key_position t key in
  let key_holders = holders t key in
  let hops = ref 0 and detours = ref 0 in
  if not (alive t from) then { responsible = None; hops = 0; detours = 0 }
  else begin
    (* Up to three end-to-end attempts: a query that lands on a quiet
       Byzantine router vanishes, and the client re-issues it through
       a different entry point. *)
    let rec attempts entry remaining =
      match attempt t ~from:entry ~kp ~key_holders ~hops ~detours with
      | `Found owner -> { responsible = Some owner; hops = !hops; detours = !detours }
      | `Dropped | `Exhausted ->
        if remaining = 0 then { responsible = None; hops = !hops; detours = !detours }
        else attempts (random_alive t) (remaining - 1)
    in
    attempts from 2
  end

let rebuild t =
  let live =
    Array.to_list t.ring
    |> List.filter_map (fun (_, nid) -> if Hashtbl.mem t.dead nid then None else Some nid)
  in
  let fresh = build ~bits:t.bits ~replicas:t.replicas ~node_ids:live () in
  Hashtbl.iter (fun nid () -> if List.mem nid live then mark_byzantine fresh nid) t.byz;
  fresh

let random_live t rng =
  (* sampling clients: correct live nodes *)
  let candidates =
    Array.to_list t.ring
    |> List.filter_map (fun (_, nid) -> if usable t nid then Some nid else None)
  in
  Atum_util.Rng.pick rng candidates

let mean_lookup_hops t ~samples ~seed =
  let rng = Atum_util.Rng.create seed in
  let total = ref 0 and ok = ref 0 in
  for i = 1 to samples do
    let from = random_live t rng in
    let r = lookup t ~from ~key:(Printf.sprintf "sample-key-%d" i) in
    match r.responsible with
    | Some _ ->
      total := !total + r.hops;
      incr ok
    | None -> ()
  done;
  if !ok = 0 then nan else float_of_int !total /. float_of_int !ok

let lookup_success_rate t ~samples ~seed =
  let rng = Atum_util.Rng.create seed in
  let ok = ref 0 in
  for i = 1 to samples do
    let from = random_live t rng in
    let r = lookup t ~from ~key:(Printf.sprintf "rate-key-%d" i) in
    if r.responsible <> None then incr ok
  done;
  float_of_int !ok /. float_of_int samples
