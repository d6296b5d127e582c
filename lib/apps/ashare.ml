module Atum = Atum_core.Atum
module System = Atum_core.System
module Bulk = Atum_sim.Bulk

type node_id = int

type content = Real of string | Synthetic of float

type get_result = {
  latency : float;
  pulled_mb : float;
  corrupted_chunks : int;
  data : string option;
}

(* The immutable facts of one PUT.  Every member's entry for the PUT
   shares one [facts], decoded once from the broadcast body, with the
   snapshot encoding of everything in the entry but its replicas:
   [{"owner":_,"name":_,"value":{"size_mb":_,"chunk_count":_,"replicas":[]. *)
type facts = { size_mb : float; chunk_count : int; json : string }

(* Each node's view of one file: its own mutable replica list (soft
   state), plus the PUT's facts. *)
type entry = { facts : facts; mutable replicas : node_id list }

(* A broadcast body, decoded. *)
type op =
  | Put of { fkey : Kv_index.key; facts : facts; owner_node : node_id }
  | Rep of { fkey : Kv_index.key; holder : node_id }
  | Del of Kv_index.key
  | Ignored

(* Stored-replica sets, one per node, keyed by file. *)
module Key_tbl = Hashtbl.Make (struct
  type t = Kv_index.key

  let equal (a : t) (b : t) = String.equal a.owner b.owner && String.equal a.name b.name
  let hash (k : t) = String.hash k.owner + (31 * String.hash k.name)
end)

(* Recently decoded bodies, direct-mapped by bid: every member of a
   broadcast delivers the same body, and a slot holds its decoding
   until another broadcast's bid takes the slot. *)
let decoded_slots = 256

type t = {
  atum : Atum.t;
  rho : int;
  host : Bulk.host;
  rng : Atum_util.Rng.t;
  (* Per-node state, indexed by node id. *)
  mutable indexes : entry Kv_index.t option array;
  mutable stored : unit Key_tbl.t option array;
  contents : (Kv_index.key, content) Hashtbl.t; (* ground-truth bytes *)
  digests : (Kv_index.key, Atum_crypto.Chunks.digest_set) Hashtbl.t;
  decoded_bid : int array;
  decoded_body : string array;
  decoded_op : op array;
}

let owner_name nid = "user-" ^ string_of_int nid

let key ~owner ~name = { Kv_index.owner; name }

let sep = '\x01'

let encode parts = String.concat (String.make 1 sep) parts

let decode s = String.split_on_char sep s

module Json = Atum_util.Json

let make_facts (fkey : Kv_index.key) ~size_mb ~chunk_count =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "{\"owner\":";
  Json.add_string buf fkey.owner;
  Buffer.add_string buf ",\"name\":";
  Json.add_string buf fkey.name;
  Buffer.add_string buf ",\"value\":{\"size_mb\":";
  Json.add_float buf size_mb;
  Buffer.add_string buf ",\"chunk_count\":";
  Json.add_int buf chunk_count;
  Buffer.add_string buf ",\"replicas\":[";
  { size_mb; chunk_count; json = Buffer.contents buf }

let decode_op body =
  match decode body with
  | [ "put"; owner; name; size_mb; chunks; owner_node ] -> (
    match (float_of_string_opt size_mb, int_of_string_opt chunks, int_of_string_opt owner_node) with
    | Some size_mb, Some chunk_count, Some owner_node ->
      let fkey = key ~owner ~name in
      Put { fkey; facts = make_facts fkey ~size_mb ~chunk_count; owner_node }
    | _ -> Ignored)
  | [ "rep"; owner; name; holder ] -> (
    match int_of_string_opt holder with
    | Some holder -> Rep { fkey = key ~owner ~name; holder }
    | None -> Ignored)
  | [ "del"; owner; name ] -> Del (key ~owner ~name)
  | _ -> Ignored

(* [body] decoded, at most once per (bid, body) while the slot holds
   it; an equivocated body for the same bid is decoded on its own. *)
let decoded t ~bid body =
  let slot = bid land (decoded_slots - 1) in
  if t.decoded_bid.(slot) = bid && String.equal t.decoded_body.(slot) body then t.decoded_op.(slot)
  else begin
    let op = decode_op body in
    t.decoded_bid.(slot) <- bid;
    t.decoded_body.(slot) <- body;
    t.decoded_op.(slot) <- op;
    op
  end

let grow a nid =
  if nid < Array.length a then a
  else begin
    let b = Array.make (max (nid + 1) (2 * Array.length a)) None in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let index_of t nid =
  t.indexes <- grow t.indexes nid;
  match t.indexes.(nid) with
  | Some ix -> ix
  | None ->
    let ix = Kv_index.create () in
    t.indexes.(nid) <- Some ix;
    ix

let stored_of t nid =
  t.stored <- grow t.stored nid;
  match t.stored.(nid) with
  | Some s -> s
  | None ->
    let s = Key_tbl.create 8 in
    t.stored.(nid) <- Some s;
    s

let atum t = t.atum

let engine t = System.engine (Atum.system t.atum)

let content_size_mb = function
  | Real s -> float_of_int (String.length s) /. 1_048_576.0
  | Synthetic mb -> mb

let stores t ~node ~owner ~name = Key_tbl.mem (stored_of t node) (key ~owner ~name)

let replica_count t ~node ~owner ~name =
  match Kv_index.get (index_of t node) (key ~owner ~name) with
  | Some e -> List.length e.replicas
  | None -> 0

let index_size t ~node = Kv_index.size (index_of t node)

let is_correct_member t nid =
  Atum.is_member t.atum nid
  &&
  match System.node_opt (Atum.system t.atum) nid with
  | Some n -> n.System.alive && not n.System.byzantine
  | None -> false

let is_byzantine t nid =
  match System.node_opt (Atum.system t.atum) nid with
  | Some n -> n.System.byzantine
  | None -> false

(* --- GET (§4.2.2) --------------------------------------------------- *)

(* Chunks are assigned round-robin across every replica the reader
   knows; pulls from all replicas proceed in parallel.  Chunks landing
   on a corrupting holder fail their digest check and are re-pulled
   from the correct holders.  Digest computation is multithreaded
   across chunks (Bulk.hash_time). *)
(* Index resolution and per-replica connection brokering cost a little
   more than one NFS lookup; it is what makes NFS marginally faster on
   very small files (Fig 9). *)
let lookup_overhead = 0.05

let get t ~reader ~owner ~name ~k =
  let finish delay result =
    let delay = delay +. lookup_overhead in
    let result =
      Option.map (fun r -> { r with latency = r.latency +. lookup_overhead }) result
    in
    Atum_sim.Engine.schedule ~label:"ashare.rpc" (engine t) ~delay (fun () -> k result)
  in
  match Kv_index.get (index_of t reader) (key ~owner ~name) with
  | None -> finish 0.001 None
  | Some e ->
    let holders =
      List.filter (fun h -> Key_tbl.mem (stored_of t h) (key ~owner ~name)) e.replicas
    in
    if List.mem reader holders then begin
      (* Local replica: only the integrity check costs anything. *)
      let check = Bulk.hash_time t.host ~mb:e.facts.size_mb ~parallel_chunks:e.facts.chunk_count in
      let data =
        match Hashtbl.find_opt t.contents (key ~owner ~name) with
        | Some (Real s) -> Some s
        | _ -> None
      in
      finish check
        (Some { latency = check; pulled_mb = 0.0; corrupted_chunks = 0; data })
    end
    else begin
      match holders with
      | [] -> finish 0.001 None
      | _ ->
        let corrupt, correct = List.partition (fun h -> is_byzantine t h) holders in
        let chunks = max 1 e.facts.chunk_count in
        let nh = List.length holders in
        (* Round-robin assignment: chunk i goes to holder (i mod nh). *)
        let bad_chunks =
          List.length
            (List.filter
               (fun i -> List.mem (List.nth holders (i mod nh)) corrupt)
               (List.init chunks Fun.id))
        in
        let hosts_of l = List.map (fun _ -> t.host) l in
        let t1 =
          Bulk.parallel_pull_time ~sources:(hosts_of holders) ~dst:t.host ~mb:e.facts.size_mb ~chunks
        in
        let hash1 = Bulk.hash_time t.host ~mb:e.facts.size_mb ~parallel_chunks:chunks in
        if bad_chunks = 0 then begin
          let data =
            match Hashtbl.find_opt t.contents (key ~owner ~name) with
            | Some (Real s) -> Some s
            | _ -> None
          in
          finish (t1 +. hash1)
            (Some
               { latency = t1 +. hash1; pulled_mb = e.facts.size_mb; corrupted_chunks = 0; data })
        end
        else if correct = [] then finish (t1 +. hash1) None
        else begin
          let bad_mb = e.facts.size_mb *. float_of_int bad_chunks /. float_of_int chunks in
          let t2 =
            Bulk.parallel_pull_time ~sources:(hosts_of correct) ~dst:t.host ~mb:bad_mb
              ~chunks:bad_chunks
          in
          let hash2 = Bulk.hash_time t.host ~mb:bad_mb ~parallel_chunks:bad_chunks in
          let total = t1 +. hash1 +. t2 +. hash2 in
          let data =
            match Hashtbl.find_opt t.contents (key ~owner ~name) with
            | Some (Real s) -> Some s
            | _ -> None
          in
          finish total
            (Some
               {
                 latency = total;
                 pulled_mb = e.facts.size_mb +. bad_mb;
                 corrupted_chunks = bad_chunks;
                 data;
               })
        end
    end

(* --- Randomized replication feedback loop (Fig 5) ------------------- *)

let rec maybe_replicate t nid fkey e =
  if
    (not (Key_tbl.mem (stored_of t nid) fkey))
    && List.length e.replicas < t.rho
    && is_correct_member t nid
  then begin
    let n = max 1 (Atum.size t.atum) in
    let c = List.length e.replicas in
    let prob = float_of_int (t.rho - c) /. float_of_int n in
    if Atum_util.Rng.bernoulli t.rng prob then begin
      (* Replicating = reading the file, then announcing. *)
      get t ~reader:nid ~owner:fkey.Kv_index.owner ~name:fkey.Kv_index.name ~k:(function
        | Some _ when is_correct_member t nid ->
          Key_tbl.replace (stored_of t nid) fkey ();
          ignore
            (Atum.broadcast t.atum ~from:nid
               (encode [ "rep"; fkey.Kv_index.owner; fkey.Kv_index.name; string_of_int nid ]))
        | _ -> ())
    end
  end

(* Apply a decoded broadcast to the node's index and stored set, and
   hand back the entry a PUT stored or a replica announcement updated
   (for the replication lottery); [Del] also forgets the ground truth
   unless [replay]ing. *)
and apply t nid ~replay = function
  | Put { fkey; facts; owner_node } ->
    let e = { facts; replicas = [ owner_node ] } in
    Kv_index.put (index_of t nid) fkey e;
    Some (fkey, e)
  | Rep { fkey; holder } -> (
    match Kv_index.get (index_of t nid) fkey with
    | Some e ->
      if not (List.mem holder e.replicas) then e.replicas <- holder :: e.replicas;
      Some (fkey, e)
    | None -> None)
  | Del fkey ->
    Kv_index.remove (index_of t nid) fkey;
    Key_tbl.remove (stored_of t nid) fkey;
    if not replay then begin
      Hashtbl.remove t.contents fkey;
      Hashtbl.remove t.digests fkey
    end;
    None
  | Ignored -> None

and handle_deliver t nid ~bid body =
  match apply t nid ~replay:false (decoded t ~bid body) with
  | Some (fkey, e) -> maybe_replicate t nid fkey e
  | None -> ()

(* --- durable state (snapshots + WAL replay) -------------------------- *)

(* An entry as the snapshot holds it, before its key gives it facts. *)
let entry_of_json j =
  match (Json.member "size_mb" j, Json.member "chunk_count" j, Json.member "replicas" j) with
  | Some (Json.Float size_mb), Some (Json.Int chunk_count), Some (Json.List rs) ->
    let replicas = List.filter_map (function Json.Int r -> Some r | _ -> None) rs in
    if List.length replicas = List.length rs then Some (size_mb, chunk_count, replicas) else None
  | _ -> None

let rec add_ints buf = function
  | [] -> ()
  | r :: rest ->
    Buffer.add_char buf ',';
    Json.add_int buf r;
    add_ints buf rest

(* The per-node durable state is exactly what a cold restart loses: the
   metadata index and the stored-replica set.  [contents]/[digests] are
   simulation ground truth (the "disk blocks"), not replica soft state,
   so they survive a restart and stay out of the snapshot.  Written as
   compact JSON in deterministic order: the index in key order, each
   entry's replicas ascending, then the stored keys in key order —
   [{"index":[{"owner":_,"name":_,"value":{"size_mb":_,"chunk_count":_,
   "replicas":[_]}}],"stored":[{"owner":_,"name":_}]}]. *)
let write_state t nid buf =
  Buffer.add_string buf "{\"index\":[";
  ignore
    (Kv_index.fold
       (fun _ e first ->
         if not first then Buffer.add_char buf ',';
         Buffer.add_string buf e.facts.json;
         (match List.sort Int.compare e.replicas with
         | [] -> ()
         | r :: rest ->
           Json.add_int buf r;
           add_ints buf rest);
         Buffer.add_string buf "]}}";
         false)
       (index_of t nid) true);
  Buffer.add_string buf "],\"stored\":[";
  List.iteri
    (fun i (k : Kv_index.key) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"owner\":";
      Json.add_string buf k.owner;
      Buffer.add_string buf ",\"name\":";
      Json.add_string buf k.name;
      Buffer.add_char buf '}')
    (List.sort Kv_index.compare_key (Key_tbl.fold (fun k () acc -> k :: acc) (stored_of t nid) []));
  Buffer.add_string buf "]}"

let wipe_state t nid =
  if nid < Array.length t.indexes then t.indexes.(nid) <- None;
  if nid < Array.length t.stored then t.stored.(nid) <- None

let import_state t nid j =
  match (Json.member "index" j, Json.member "stored" j) with
  | Some ix_json, Some (Json.List stored) -> (
    match Kv_index.of_json entry_of_json ix_json with
    | Some raw ->
      let ix = Kv_index.create () in
      Kv_index.fold
        (fun k (size_mb, chunk_count, replicas) () ->
          Kv_index.put ix k { facts = make_facts k ~size_mb ~chunk_count; replicas })
        raw ();
      t.indexes <- grow t.indexes nid;
      t.indexes.(nid) <- Some ix;
      let s = Key_tbl.create 8 in
      List.iter
        (fun item ->
          match (Json.member "owner" item, Json.member "name" item) with
          | Some (Json.String owner), Some (Json.String name) ->
            Key_tbl.replace s (key ~owner ~name) ()
          | _ -> ())
        stored;
      t.stored <- grow t.stored nid;
      t.stored.(nid) <- Some s
    | None -> ())
  | _ -> ()

(* WAL replay applies a delivered broadcast to local state only: no
   re-broadcast, no replication lottery — those already ran (and were
   themselves logged) before the crash. *)
let replay_deliver t nid body = ignore (apply t nid ~replay:true (decode_op body))

let enable_persistence t =
  System.set_app_state (Atum.system t.atum)
    ~export:(fun nid buf -> write_state t nid buf)
    ~wipe:(fun nid -> wipe_state t nid)
    ~import:(fun nid j -> import_state t nid j)
    ~replay:(fun nid ~bid:_ ~origin:_ body -> replay_deliver t nid body)

let attach atum ~rho =
  if rho < 1 then invalid_arg "Ashare.attach: rho must be at least 1";
  let t =
    {
      atum;
      rho;
      host = Bulk.ec2_micro;
      rng = Atum_util.Rng.create 23;
      indexes = [||];
      stored = [||];
      contents = Hashtbl.create 64;
      digests = Hashtbl.create 64;
      decoded_bid = Array.make decoded_slots (-1);
      decoded_body = Array.make decoded_slots "";
      decoded_op = Array.make decoded_slots Ignored;
    }
  in
  Atum.on_deliver atum (fun nid ~bid ~origin:_ body -> handle_deliver t nid ~bid body);
  t

(* --- PUT / DELETE / SEARCH ------------------------------------------ *)

let put t ~owner ~name ?(chunk_count = 10) content =
  if not (Atum.is_member t.atum owner) then invalid_arg "Ashare.put: owner not in the system";
  let fkey = key ~owner:(owner_name owner) ~name in
  let size_mb = content_size_mb content in
  Hashtbl.replace t.contents fkey content;
  (match content with
  | Real s -> Hashtbl.replace t.digests fkey (Atum_crypto.Chunks.digests ~chunk_count s)
  | Synthetic _ -> ());
  Key_tbl.replace (stored_of t owner) fkey ();
  ignore
    (Atum.broadcast t.atum ~from:owner
       (encode
          [
            "put";
            owner_name owner;
            name;
            string_of_float size_mb;
            string_of_int chunk_count;
            string_of_int owner;
          ]))

let delete t ~owner ~name =
  ignore (Atum.broadcast t.atum ~from:owner (encode [ "del"; owner_name owner; name ]))

let search t ~node term =
  List.map
    (fun ((k : Kv_index.key), _) -> (k.Kv_index.owner, k.Kv_index.name))
    (Kv_index.search (index_of t node) term)

let indexes_converged t =
  let sys = Atum.system t.atum in
  let members =
    List.filter_map
      (fun (n : System.node) ->
        if n.System.alive && (not n.System.byzantine) && n.System.vg <> None then
          Some n.System.id
        else None)
      (System.live_nodes sys)
  in
  match members with
  | [] -> true
  | first :: rest ->
    let snapshot nid =
      Kv_index.fold
        (fun k e acc -> (k, e.facts.size_mb, e.facts.chunk_count, List.sort Int.compare e.replicas) :: acc)
        (index_of t nid) []
    in
    let reference = snapshot first in
    List.for_all (fun nid -> snapshot nid = reference) rest

let place_replicas t ~owner ~name ~holders =
  let fkey = key ~owner:(owner_name owner) ~name in
  let holders = List.sort_uniq Int.compare holders in
  (* Exact placement: the experiment controls the replica set, so any
     previous holders are dropped first. *)
  Array.iter (function Some s -> Key_tbl.remove s fkey | None -> ()) t.stored;
  List.iter (fun h -> Key_tbl.replace (stored_of t h) fkey ()) holders;
  Array.iter
    (function
      | Some ix -> (
        match Kv_index.get ix fkey with Some e -> e.replicas <- holders | None -> ())
      | None -> ())
    t.indexes
