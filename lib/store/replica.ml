(* Per-replica durable state manager: one WAL + one snapshot per node,
   over any Backend.

   The write path is append-only; every [snapshot_every] appends the
   caller is told to fold its state into a fresh snapshot, after which
   the WAL is truncated.  Recovery loads snapshot + WAL prefix and
   reports exactly how much survived and in what shape, leaving the
   fall-back policy (fresh join on corruption) to the caller. *)

module Json = Atum_util.Json

let wal_name = "wal.log"
let snapshot_name = "snapshot.bin"

(* Per-node counters, one record per node that ever wrote. *)
type node_log = {
  mutable pending : int; (* appends since the last snapshot — the snapshot trigger *)
  mutable bytes : int; (* live WAL + snapshot bytes (reset on truncate) *)
}

type t = {
  backend : Backend.t;
  key : string;
  snapshot_every : int;
  logs : (int, node_log) Hashtbl.t;
  buf : Buffer.t; (* encoding scratch shared by every WAL frame and snapshot *)
  sum : Atum_crypto.Sha256.ctx; (* checksum context shared by every WAL frame *)
  mac : Atum_crypto.Hmac.ctx; (* tag context shared by every snapshot *)
  mutable appends : int;
  mutable snapshots : int;
  mutable replayed : int;
}

type recovery = {
  snapshot : Json.t option;
  entries : Json.t list;
  wal_status : Wal.status;
  snapshot_error : string option;
}

let corrupt r =
  (match r.wal_status with Wal.Corrupt _ -> true | _ -> false)
  || Option.is_some r.snapshot_error

let create ?(snapshot_every = 64) ~key backend =
  if snapshot_every < 1 then invalid_arg "Replica.create: snapshot_every must be >= 1";
  {
    backend;
    key;
    snapshot_every;
    logs = Hashtbl.create 64;
    buf = Buffer.create 4096;
    sum = Atum_crypto.Sha256.init ();
    mac = Atum_crypto.Hmac.init ~key;
    appends = 0;
    snapshots = 0;
    replayed = 0;
  }

let backend t = t.backend

let log_of t node =
  match Hashtbl.find t.logs node with
  | l -> l
  | exception Not_found ->
    let l = { pending = 0; bytes = 0 } in
    Hashtbl.replace t.logs node l;
    l

type frame = string

let frame t record = Wal.frame t.sum t.buf record

let append t ~node frame =
  t.backend.Backend.append ~node ~name:wal_name frame;
  t.appends <- t.appends + 1;
  let l = log_of t node in
  l.pending <- l.pending + 1;
  l.bytes <- l.bytes + String.length frame

let needs_snapshot t ~node =
  match Hashtbl.find t.logs node with
  | l -> l.pending >= t.snapshot_every
  | exception Not_found -> false

let reset_log t node ~bytes =
  let l = log_of t node in
  l.pending <- 0;
  l.bytes <- bytes

let save_snapshot t ~node write =
  let n = Snapshot.save t.buf t.mac t.backend ~node ~name:snapshot_name write in
  Wal.reset t.backend ~node ~name:wal_name;
  t.snapshots <- t.snapshots + 1;
  reset_log t node ~bytes:n

let recover t ~node =
  let snapshot, snapshot_error =
    match Snapshot.load t.backend ~key:t.key ~node ~name:snapshot_name with
    | Ok s -> (s, None)
    | Error e -> (None, Some e)
  in
  let entries, wal_status = Wal.replay t.backend ~node ~name:wal_name in
  t.replayed <- t.replayed + List.length entries;
  { snapshot; entries; wal_status; snapshot_error }

let wipe t ~node =
  Wal.reset t.backend ~node ~name:wal_name;
  Snapshot.remove t.backend ~node ~name:snapshot_name;
  reset_log t node ~bytes:0

let appends t = t.appends
let snapshots t = t.snapshots
let replayed t = t.replayed
let fsyncs t = t.backend.Backend.sync_count ()

let log_bytes t = Hashtbl.fold (fun _ l acc -> acc + l.bytes) t.logs 0
