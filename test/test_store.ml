(* The durability layer (Atum_store): WAL framing, snapshot
   authentication, per-replica recovery — and System.restart on top of
   it, the crash→cold-restart→rejoin loop.

   Damage tolerance is the point: a truncated WAL tail is survivable
   (the valid prefix replays), a corrupted record or forged snapshot
   is not (the replica falls back to wiping the store and
   fresh-joining), and both paths must leave the registry consistent. *)

module Atum = Atum_core.Atum
module System = Atum_core.System
module Monitor = Atum_core.Monitor
module Backend = Atum_store.Backend
module Vfs = Atum_store.Vfs
module Wal = Atum_store.Wal
module Snapshot = Atum_store.Snapshot
module Replica = Atum_store.Replica
module Json = Atum_util.Json
module Ashare = Atum_apps.Ashare
module W = Atum_workload

let obj i = Json.Obj [ ("t", Json.String "deliver"); ("bid", Json.Int i) ]

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j)) Json.equal

let wal_status =
  Alcotest.testable
    (fun fmt -> function
      | Wal.Complete -> Format.pp_print_string fmt "Complete"
      | Wal.Truncated { dropped_bytes } -> Format.fprintf fmt "Truncated %d" dropped_bytes
      | Wal.Corrupt { at_record } -> Format.fprintf fmt "Corrupt %d" at_record)
    ( = )

(* ------------------------------------------------------------------ *)
(* WAL framing                                                         *)
(* ------------------------------------------------------------------ *)

(* Frame a record and append it to a log, as [Replica.append] does;
   returns the frame's size. *)
let wal_append b ~node ~name record =
  let frame = Wal.frame (Atum_crypto.Sha256.init ()) (Buffer.create 64) record in
  b.Backend.append ~node ~name frame;
  String.length frame

let test_wal_roundtrip () =
  let vfs = Vfs.create () in
  let b = Vfs.backend vfs in
  let records = List.init 20 obj in
  List.iter (fun r -> ignore (wal_append b ~node:3 ~name:"wal" r)) records;
  let entries, status = Wal.replay b ~node:3 ~name:"wal" in
  Alcotest.check wal_status "complete" Wal.Complete status;
  Alcotest.(check (list json)) "all records back, in order" records entries;
  (* A different node's WAL is independent (and missing = empty). *)
  let entries, status = Wal.replay b ~node:4 ~name:"wal" in
  Alcotest.check wal_status "missing file is complete" Wal.Complete status;
  Alcotest.(check int) "missing file is empty" 0 (List.length entries)

let test_wal_truncated_tail () =
  let vfs = Vfs.create () in
  let b = Vfs.backend vfs in
  let sizes = List.map (fun r -> wal_append b ~node:0 ~name:"wal" r) (List.init 5 obj) in
  let keep = List.fold_left ( + ) 0 sizes - 7 in
  Alcotest.(check bool) "truncate applied" true (Vfs.truncate vfs ~node:0 ~name:"wal" ~keep);
  let entries, status = Wal.replay b ~node:0 ~name:"wal" in
  (* The half-written last frame is dropped; the prefix survives. *)
  Alcotest.(check (list json)) "prefix survives" (List.init 4 obj) entries;
  match status with
  | Wal.Truncated { dropped_bytes } ->
    Alcotest.(check bool) "dropped tail measured" true (dropped_bytes > 0)
  | s -> Alcotest.check wal_status "expected Truncated" (Wal.Truncated { dropped_bytes = 1 }) s

let test_wal_corrupt_record () =
  let vfs = Vfs.create () in
  let b = Vfs.backend vfs in
  let s0 = wal_append b ~node:0 ~name:"wal" (obj 0) in
  ignore (wal_append b ~node:0 ~name:"wal" (obj 1));
  ignore (wal_append b ~node:0 ~name:"wal" (obj 2));
  (* Flip a byte inside record 1's payload: its checksum must fail. *)
  Alcotest.(check bool) "corruption applied" true
    (Vfs.corrupt_byte vfs ~node:0 ~name:"wal" ~at:(s0 + Wal.header_bytes + 2));
  let entries, status = Wal.replay b ~node:0 ~name:"wal" in
  Alcotest.check wal_status "corrupt at record 1" (Wal.Corrupt { at_record = 1 }) status;
  Alcotest.(check (list json)) "prefix before the damage survives" [ obj 0 ] entries

(* ------------------------------------------------------------------ *)
(* Vfs: files grow and are damaged in place                            *)
(* ------------------------------------------------------------------ *)

let test_vfs_append_after_truncate () =
  let vfs = Vfs.create () in
  let b = Vfs.backend vfs in
  b.Backend.append ~node:0 ~name:"f" "abcdef";
  b.Backend.append ~node:0 ~name:"f" "ghij";
  Alcotest.(check bool) "truncated" true (Vfs.truncate vfs ~node:0 ~name:"f" ~keep:3);
  Alcotest.(check (option string)) "cut to the prefix" (Some "abc") (Vfs.read vfs ~node:0 ~name:"f");
  (* The bytes past the cut are gone, not resurrected by the next append. *)
  b.Backend.append ~node:0 ~name:"f" "XY";
  Alcotest.(check (option string)) "append lands at the cut" (Some "abcXY")
    (Vfs.read vfs ~node:0 ~name:"f");
  Alcotest.(check int) "total bytes" 5 (Vfs.total_bytes vfs);
  (* A returned copy does not alias the file. *)
  let before = Vfs.read vfs ~node:0 ~name:"f" in
  b.Backend.append ~node:0 ~name:"f" (String.make 100 'z');
  Alcotest.(check (option string)) "earlier read unchanged" (Some "abcXY") before;
  Alcotest.(check (option int)) "grown" (Some 105)
    (Option.map String.length (Vfs.read vfs ~node:0 ~name:"f"))

let test_vfs_remove_then_recreate () =
  let vfs = Vfs.create () in
  let b = Vfs.backend vfs in
  b.Backend.append ~node:1 ~name:"wal" (String.make 64 'a');
  b.Backend.save ~node:1 ~name:"snap" "s1";
  Alcotest.(check int) "two files" 2 (Vfs.file_count vfs);
  b.Backend.remove ~node:1 ~name:"wal";
  Alcotest.(check (option string)) "removed reads as absent" None (Vfs.read vfs ~node:1 ~name:"wal");
  Alcotest.(check (option (float 0.0))) "no mtime" None (Vfs.mtime vfs ~node:1 ~name:"wal");
  Alcotest.(check int) "one file" 1 (Vfs.file_count vfs);
  Alcotest.(check bool) "cannot damage a removed file" false
    (Vfs.corrupt_byte vfs ~node:1 ~name:"wal" ~at:0);
  b.Backend.remove ~node:1 ~name:"wal";
  Alcotest.(check int) "double remove is a no-op" 1 (Vfs.file_count vfs);
  (* The next file of that name starts empty. *)
  b.Backend.append ~node:1 ~name:"wal" "fresh";
  Alcotest.(check (option string)) "recreated" (Some "fresh") (Vfs.read vfs ~node:1 ~name:"wal");
  b.Backend.save ~node:1 ~name:"snap" "s2";
  Alcotest.(check (option string)) "save replaces" (Some "s2") (Vfs.read vfs ~node:1 ~name:"snap");
  Alcotest.(check int) "two files again" 2 (Vfs.file_count vfs);
  Alcotest.(check int) "total bytes" 7 (Vfs.total_bytes vfs)

let test_vfs_corrupt_then_replay () =
  let vfs = Vfs.create () in
  let b = Vfs.backend vfs in
  let s0 = wal_append b ~node:0 ~name:"wal" (obj 0) in
  ignore (wal_append b ~node:0 ~name:"wal" (obj 1));
  let intact = Vfs.read vfs ~node:0 ~name:"wal" in
  let at = s0 + Wal.header_bytes + 3 in
  Alcotest.(check bool) "corrupted" true (Vfs.corrupt_byte vfs ~node:0 ~name:"wal" ~at);
  (match (intact, Vfs.read vfs ~node:0 ~name:"wal") with
  | Some a, Some c ->
    Alcotest.(check int) "same length" (String.length a) (String.length c);
    Alcotest.(check char) "byte flipped in place"
      (Char.chr (Char.code a.[at] lxor 0xFF))
      c.[at];
    Alcotest.(check string) "rest untouched"
      (String.sub a 0 at ^ String.sub a (at + 1) (String.length a - at - 1))
      (String.sub c 0 at ^ String.sub c (at + 1) (String.length c - at - 1))
  | _ -> Alcotest.fail "file missing");
  let entries, status = Wal.replay b ~node:0 ~name:"wal" in
  Alcotest.check wal_status "replay sees the damage" (Wal.Corrupt { at_record = 1 }) status;
  Alcotest.(check (list json)) "prefix survives" [ obj 0 ] entries;
  (* Flipping the byte back restores the log. *)
  ignore (Vfs.corrupt_byte vfs ~node:0 ~name:"wal" ~at);
  let entries, status = Wal.replay b ~node:0 ~name:"wal" in
  Alcotest.check wal_status "restored" Wal.Complete status;
  Alcotest.(check (list json)) "both records" [ obj 0; obj 1 ] entries

(* ------------------------------------------------------------------ *)
(* Byte identity of the write path                                     *)
(* ------------------------------------------------------------------ *)

(* Records exercising every writer case: escapes, floats of each
   format, non-finite floats, nested and empty containers. *)
let corpus =
  Json.
    [
      Null; Bool true; Bool false; Int 0; Int (-42); Int max_int; Int min_int;
      Float 0.0; Float (-0.0); Float 1.5; Float (-2.0); Float 1e15; Float 1e20; Float 0.1;
      Float (1. /. 3.); Float 1e-300; Float nan; Float infinity; Float neg_infinity;
      Float 123456789012.0;
      String ""; String "plain ascii";
      String "q\" b\\ n\n r\r t\t bel\007 nul\000 us\031 del\127 / \xc3\xa9";
      List []; List [ Int 1 ]; List [ List []; Obj []; List [ Null; Bool false ] ];
      Obj []; Obj [ ("", Null) ];
      Obj
        [
          ("k\"ey", String "v");
          ("nested", Obj [ ("a", List [ Float 2.5; Obj [ ("b", Obj []) ]; String "x\ny" ]) ]);
        ];
    ]

let golden_record i =
  Json.Obj
    [
      ("t", Json.String "deliver");
      ("bid", Json.Int i);
      ("origin", Json.Int (i * 7));
      ("body", List.nth corpus (i mod List.length corpus));
      ("body2", Json.String (Printf.sprintf "payload-%d-\"%s\"" i (String.make (i * 13) 'x')));
    ]

(* A snapshot writer for a ready-made document. *)
let json_writer doc buf = Json.to_buffer ~pretty:false buf doc

(* A fixed sequence of appends and snapshots over three nodes; the
   resulting file bytes were hashed on the original write path (whole
   strings, Int32 SHA-256), so the on-disk format cannot drift. *)
let test_store_golden_bytes () =
  let vfs = Vfs.create ~now:(fun () -> 1.5) () in
  let r = Replica.create ~snapshot_every:3 ~key:"golden-key" (Vfs.backend vfs) in
  for i = 0 to 40 do
    let node = i mod 3 in
    Replica.append r ~node (Replica.frame r (golden_record i));
    if Replica.needs_snapshot r ~node then
      Replica.save_snapshot r ~node
        (json_writer
           (Json.Obj
              [
                ("vid", Json.Int node);
                ("upto", Json.Int i);
                ("docs", Json.List (List.init (i mod 5) golden_record));
              ]))
  done;
  let files =
    List.concat_map
      (fun node ->
        [
          Option.value ~default:"" (Vfs.read vfs ~node ~name:Replica.wal_name);
          Option.value ~default:"" (Vfs.read vfs ~node ~name:Replica.snapshot_name);
        ])
      [ 0; 1; 2 ]
  in
  Alcotest.(check string) "file bytes"
    "86edb2dd40cd85c4e9d03e520323438e1c5b7742d330dbf57c4e52dcc9c11333"
    (Atum_crypto.Sha256.digest_hex (String.concat "" files));
  Alcotest.(check int) "log bytes" 3855 (Replica.log_bytes r);
  Alcotest.(check int) "vfs bytes" 3855 (Vfs.total_bytes vfs);
  Alcotest.(check int) "fsyncs" 53 (Replica.fsyncs r);
  (* And it all reads back. *)
  List.iter
    (fun node ->
      let rc = Replica.recover r ~node in
      Alcotest.(check bool) "recovers" false (Replica.corrupt rc))
    [ 0; 1; 2 ]

(* A small durable deployment end to end: Async vgroups over the WAN
   model, AShare puts indexed by every member, snapshots every few
   appends, and one crash-restart in the middle.  The SHA-256 of every
   file the store holds afterwards was recorded on the write path that
   framed each member's WAL record separately, so frames shared across
   members must leave every stored byte where it was. *)
let test_store_golden_durable_run () =
  let n = 30 and seed = 21 in
  let params = Atum_core.Params.for_system_size ~protocol:Atum_core.Params.Async ~seed n in
  let built =
    W.Builder.grow ~params ~net_config:(Atum_sim.Network.wan_config ~seed) ~n ~seed ()
  in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  let vfs = Vfs.create ~now:(fun () -> Atum.now atum) () in
  ignore (System.attach_store ~snapshot_every:5 sys (Vfs.backend vfs));
  let ash = Ashare.attach atum ~rho:2 in
  Ashare.enable_persistence ash;
  let members = W.Builder.correct_members built in
  let owner = List.nth members 0 and victim = List.nth members 1 in
  let put i =
    Ashare.put ash ~owner ~name:(Printf.sprintf "doc-%d" i)
      (Ashare.Real (Printf.sprintf "contents of %d: %s" i (String.make (i * 5) 'z')))
  in
  for i = 0 to 3 do
    put i;
    Atum.run_for atum 5.0
  done;
  System.crash sys victim;
  for i = 4 to 6 do
    put i;
    Atum.run_for atum 5.0
  done;
  System.restart sys victim;
  for i = 7 to 9 do
    put i;
    Atum.run_for atum 5.0
  done;
  Atum.run_for atum 60.0;
  (match System.restart_reports sys with
  | [ r ] -> Alcotest.(check bool) "restart replayed its store" false r.System.r_fallback
  | rs -> Alcotest.failf "expected one restart report, got %d" (List.length rs));
  let files =
    List.concat_map
      (fun node ->
        List.filter_map
          (fun name -> Vfs.read vfs ~node ~name)
          [ Replica.wal_name; Replica.snapshot_name ])
      (List.init 512 Fun.id)
  in
  Alcotest.(check int) "every file hashed" (Vfs.file_count vfs) (List.length files);
  Alcotest.(check bool) "snapshots taken" true (Replica.snapshots (Option.get (System.store sys)) > 0);
  Alcotest.(check int) "files" 60 (Vfs.file_count vfs);
  Alcotest.(check int) "bytes" 44310 (Vfs.total_bytes vfs);
  Alcotest.(check string) "file bytes"
    "9aedb93c2541f8296350fb7481f2bfede7e5ef3d5f50a3f249e083fb28fa0747"
    (Atum_crypto.Sha256.digest_hex (String.concat "" (List.map Atum_crypto.Sha256.digest files)))

(* A delivery's WAL frame is shared by every member that delivers the
   broadcast as issued, never by one handed another body.  Equivocating
   members plus heavy loss put forged bodies in flight.  Acceptance
   keyed by message keeps a Byzantine minority from getting one
   delivered, so one vgroup is given a Byzantine majority, past the
   fault bound: its equivocators forge the same body per cycle and
   together vouch for it, and some correct members deliver it.
   Whatever body a member delivered, its own WAL must replay exactly
   that body. *)
let test_frame_follows_delivered_body () =
  let module Network = Atum_sim.Network in
  let params = Atum_core.Params.for_system_size ~protocol:Atum_core.Params.Async ~seed:1 120 in
  let sys = System.create ~net_config:(Network.datacenter_config ~seed:1) params in
  let ids = Array.of_list (System.build_direct sys ~nodes:120 ()) in
  System.set_forward_policy sys System.flood_forward;
  let vfs = Vfs.create () in
  let store = System.attach_store ~snapshot_every:max_int sys (Vfs.backend vfs) in
  for i = 0 to 11 do
    System.make_byzantine sys ~strategy:System.Equivocate ids.((i * 10) + 3)
  done;
  let origins = [ 0; 25; 50; 75; 100 ] in
  let captured =
    List.find
      (fun vg -> not (List.exists (fun i -> List.mem ids.(i) (System.members vg)) origins))
      (List.map (System.vgroup sys) (System.vgroup_ids sys))
  in
  List.iteri
    (fun i m ->
      if i <= System.size captured / 2 && not (System.node sys m).System.byzantine then
        System.make_byzantine sys ~strategy:System.Equivocate m)
    (System.members captured);
  let delivered = Hashtbl.create 1024 in
  System.set_deliver sys (fun nid ~bid ~origin:_ body -> Hashtbl.replace delivered (nid, bid) body);
  Network.set_loss_boost (System.network sys) 0.2;
  List.iter (fun i -> ignore (System.broadcast sys ~from:ids.(i) (Printf.sprintf "b%d" i))) origins;
  System.run_for sys 60.0;
  let logged = Hashtbl.create 1024 in
  Array.iter
    (fun nid ->
      let r = Replica.recover store ~node:nid in
      Alcotest.check wal_status "log intact" Wal.Complete r.Replica.wal_status;
      List.iter
        (function
          | Json.Obj [ ("t", Json.String "deliver"); ("bid", Json.Int bid); _; ("body", Json.String b) ] ->
            Hashtbl.replace logged (nid, bid) b
          | _ -> ())
        r.Replica.entries)
    ids;
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Alcotest.(check (list (pair (pair int int) string)))
    "each member's WAL holds the body it delivered" (sorted delivered) (sorted logged);
  let bodies = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (_, bid) b ->
      let seen = Option.value ~default:[] (Hashtbl.find_opt bodies bid) in
      if not (List.mem b seen) then Hashtbl.replace bodies bid (b :: seen))
    delivered;
  Alcotest.(check bool) "some broadcast was delivered with two bodies" true
    (Hashtbl.fold (fun _ bs acc -> acc || List.length bs > 1) bodies false)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip_and_auth () =
  let vfs = Vfs.create () in
  let b = Vfs.backend vfs in
  let state = Json.Obj [ ("vid", Json.Int 2); ("delivered", Json.List [ Json.Int 1 ]) ] in
  ignore
    (Snapshot.save (Buffer.create 64) (Atum_crypto.Hmac.init ~key:"k") b ~node:5 ~name:"snap"
       (json_writer state));
  (match Snapshot.load b ~key:"k" ~node:5 ~name:"snap" with
  | Ok (Some j) -> Alcotest.check json "round-trips" state j
  | Ok None -> Alcotest.fail "snapshot vanished"
  | Error e -> Alcotest.fail e);
  (* Wrong key = forged snapshot: authentication must fail. *)
  (match Snapshot.load b ~key:"other" ~node:5 ~name:"snap" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged snapshot accepted");
  (* One flipped payload byte must also fail the HMAC. *)
  ignore (Vfs.corrupt_byte vfs ~node:5 ~name:"snap" ~at:(Snapshot.header_bytes + 1));
  (match Snapshot.load b ~key:"k" ~node:5 ~name:"snap" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted snapshot accepted");
  (* Missing file is not an error — just no snapshot. *)
  match Snapshot.load b ~key:"k" ~node:6 ~name:"snap" with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "phantom snapshot"
  | Error e -> Alcotest.fail e

(* AShare's streamed snapshot state against the tree the snapshot
   used to be built as, encoded by [Json.to_buffer ~pretty:false]:
   the index in key order, each entry's replicas ascending, then the
   stored keys in key order.  Random indexes with awkward names and
   sizes, unsorted replica lists and empty parts are imported, written
   and compared byte for byte; the written bytes must import back to
   the same state. *)
let ashare_reference_tree ~index ~stored =
  let key_order ((o1, n1), _) ((o2, n2), _) =
    match String.compare o1 o2 with 0 -> String.compare n1 n2 | c -> c
  in
  let entry ((owner, name), (size_mb, chunk_count, replicas)) =
    Json.Obj
      [
        ("owner", Json.String owner);
        ("name", Json.String name);
        ( "value",
          Json.Obj
            [
              ("size_mb", Json.Float size_mb);
              ("chunk_count", Json.Int chunk_count);
              ("replicas", Json.List (List.map (fun r -> Json.Int r) (List.sort Int.compare replicas)));
            ] );
      ]
  in
  Json.Obj
    [
      ("index", Json.List (List.map entry (List.sort key_order index)));
      ( "stored",
        Json.List
          (List.map
             (fun ((owner, name), ()) ->
               Json.Obj [ ("owner", Json.String owner); ("name", Json.String name) ])
             (List.sort key_order (List.map (fun k -> (k, ())) stored))) );
    ]

let test_ashare_streamed_state () =
  let ash = Ashare.attach (Atum.create ()) ~rho:3 in
  let rng = Atum_util.Rng.create 77 in
  let alphabet = [| "a"; "b"; "\""; "\\"; "\x01"; "\n"; "\xc3\xa9"; "\xff"; "\x80"; "z"; "0" |] in
  let str () =
    String.concat "" (List.init (Atum_util.Rng.int rng 5) (fun _ -> Atum_util.Rng.pick_array rng alphabet))
  in
  let sizes = [| 0.1; 1e-7; 3.0; 1e15; 1e20; 5e-324; 0.0; 2.5 |] in
  let written nid =
    let buf = Buffer.create 256 in
    Ashare.write_state ash nid buf;
    Buffer.contents buf
  in
  for case = 0 to 199 do
    (* Keys are unique per index, as a B-tree keeps them; case 0 is
       empty, and every fifth case has no stored set. *)
    let keys = Hashtbl.create 16 in
    let n = if case = 0 then 0 else Atum_util.Rng.int rng 12 in
    for _ = 1 to n do
      Hashtbl.replace keys (str (), str ()) ()
    done;
    let ks = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys []) in
    let index =
      List.map
        (fun k ->
          ( k,
            ( Atum_util.Rng.pick_array rng sizes,
              Atum_util.Rng.int rng 40,
              List.init (Atum_util.Rng.int rng 5) (fun _ -> Atum_util.Rng.int rng 1000) ) ))
        (Atum_util.Rng.shuffle_list rng ks)
    in
    let stored =
      if case mod 5 = 0 then [] else List.filter (fun _ -> Atum_util.Rng.bool rng) (Atum_util.Rng.shuffle_list rng ks)
    in
    (* The import form: entries and replicas in whatever order. *)
    let import_form =
      Json.Obj
        [
          ( "index",
            Json.List
              (List.map
                 (fun ((owner, name), (size_mb, chunk_count, replicas)) ->
                   Json.Obj
                     [
                       ("owner", Json.String owner);
                       ("name", Json.String name);
                       ( "value",
                         Json.Obj
                           [
                             ("size_mb", Json.Float size_mb);
                             ("chunk_count", Json.Int chunk_count);
                             ("replicas", Json.List (List.map (fun r -> Json.Int r) replicas));
                           ] );
                     ])
                 index) );
          ( "stored",
            Json.List
              (List.map
                 (fun (owner, name) -> Json.Obj [ ("owner", Json.String owner); ("name", Json.String name) ])
                 stored) );
        ]
    in
    let nid = 1 + (case mod 7) in
    Ashare.wipe_state ash nid;
    Ashare.import_state ash nid import_form;
    let want = Buffer.create 256 in
    Json.to_buffer ~pretty:false want (ashare_reference_tree ~index ~stored);
    let got = written nid in
    Alcotest.(check string) (Printf.sprintf "case %d: bytes" case) (Buffer.contents want) got;
    (* The written bytes restore the same state on another node. *)
    Ashare.import_state ash 100 (Json.of_string_exn got);
    Alcotest.(check string) (Printf.sprintf "case %d: import restores" case) got (written 100);
    Alcotest.(check int) (Printf.sprintf "case %d: index size" case) (List.length index)
      (Ashare.index_size ash ~node:100)
  done

(* ------------------------------------------------------------------ *)
(* Replica manager                                                     *)
(* ------------------------------------------------------------------ *)

let test_replica_snapshot_cycle () =
  let vfs = Vfs.create () in
  let r = Replica.create ~snapshot_every:4 ~key:"k" (Vfs.backend vfs) in
  List.iter (fun i -> Replica.append r ~node:1 (Replica.frame r (obj i))) [ 0; 1; 2 ];
  Alcotest.(check bool) "below threshold" false (Replica.needs_snapshot r ~node:1);
  Replica.append r ~node:1 (Replica.frame r (obj 3));
  Alcotest.(check bool) "at threshold" true (Replica.needs_snapshot r ~node:1);
  Replica.save_snapshot r ~node:1 (json_writer (Json.Obj [ ("state", Json.Int 42) ]));
  Alcotest.(check bool) "snapshot resets the counter" false (Replica.needs_snapshot r ~node:1);
  Replica.append r ~node:1 (Replica.frame r (obj 4));
  let rec_ = Replica.recover r ~node:1 in
  Alcotest.(check bool) "not corrupt" false (Replica.corrupt rec_);
  Alcotest.check json "snapshot back"
    (Json.Obj [ ("state", Json.Int 42) ])
    (match rec_.Replica.snapshot with Some s -> s | None -> Json.Null);
  Alcotest.(check (list json)) "only post-snapshot WAL entries" [ obj 4 ] rec_.Replica.entries;
  Alcotest.(check int) "appends counted" 5 (Replica.appends r);
  Alcotest.(check int) "snapshots counted" 1 (Replica.snapshots r);
  Alcotest.(check bool) "log bytes tracked" true (Replica.log_bytes r > 0);
  Alcotest.(check bool) "vfs counted syncs" true (Replica.fsyncs r > 0);
  Replica.wipe r ~node:1;
  let rec_ = Replica.recover r ~node:1 in
  Alcotest.(check bool) "wiped: no snapshot" true (Option.is_none rec_.Replica.snapshot);
  Alcotest.(check int) "wiped: no entries" 0 (List.length rec_.Replica.entries)

let test_replica_corrupt_detection () =
  let vfs = Vfs.create () in
  let r = Replica.create ~key:"k" (Vfs.backend vfs) in
  Replica.append r ~node:2 (Replica.frame r (obj 0));
  ignore (Vfs.corrupt_byte vfs ~node:2 ~name:Replica.wal_name ~at:(Wal.header_bytes + 1));
  Alcotest.(check bool) "corrupt WAL detected" true (Replica.corrupt (Replica.recover r ~node:2))

(* ------------------------------------------------------------------ *)
(* System.restart: the full crash → cold-restart → rejoin loop         *)
(* ------------------------------------------------------------------ *)

let build ?(n = 24) ?(seed = 11) () = W.Builder.grow ~n ~seed ()

let restart_setup () =
  let built = build () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  Atum.on_forward atum System.flood_forward;
  let vfs = Vfs.create ~now:(fun () -> Atum.now atum) () in
  ignore (System.attach_store sys (Vfs.backend vfs));
  let victim =
    match List.filter (fun m -> m <> built.W.Builder.first) (W.Builder.correct_members built) with
    | m :: _ -> m
    | [] -> Alcotest.fail "no victim available"
  in
  (built, atum, sys, vfs, victim)

let broadcast_settle built atum body =
  (match W.Builder.correct_members built with
  | from :: _ -> ignore (Atum.broadcast atum ~from body)
  | [] -> ());
  Atum.run_for atum 60.0

let test_restart_recovers_durable_state () =
  let built, atum, sys, _vfs, victim = restart_setup () in
  broadcast_settle built atum "pre-crash";
  let delivered_before = List.length (System.delivered sys victim) in
  Alcotest.(check bool) "victim delivered the broadcast" true (delivered_before > 0);
  System.crash sys victim;
  Atum.run_for atum 30.0;
  System.restart sys victim;
  Atum.run_for atum 120.0;
  (match System.restart_reports sys with
  | [ r ] ->
    Alcotest.(check bool) "no fallback" false r.System.r_fallback;
    Alcotest.(check bool) "WAL entries replayed" true (r.System.r_replayed > 0);
    Alcotest.(check bool) "rejoined" true (Option.is_some r.System.r_rejoined_at);
    Alcotest.(check bool) "caught up" true (Option.is_some r.System.r_caught_up_at)
  | rs -> Alcotest.failf "expected one restart report, got %d" (List.length rs));
  Alcotest.(check int) "delivered set rebuilt from the store" delivered_before
    (List.length (System.delivered sys victim));
  (* The restarted node keeps working: it delivers fresh broadcasts. *)
  broadcast_settle built atum "post-restart";
  Alcotest.(check bool) "delivers after restart" true
    (List.length (System.delivered sys victim) > delivered_before);
  (match System.check_consistency sys with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let mon = Monitor.attach sys in
  Alcotest.(check int) "monitor clean after restart" 0 (Monitor.sweep mon)

let test_restart_catchup_redelivers_missed () =
  let built, atum, sys, _vfs, victim = restart_setup () in
  broadcast_settle built atum "pre-crash";
  System.crash sys victim;
  (* Broadcasts the victim misses while down. *)
  broadcast_settle built atum "missed-1";
  broadcast_settle built atum "missed-2";
  let before = List.length (System.delivered sys victim) in
  let redelivered = ref [] in
  System.set_deliver sys (fun nid ~bid ~origin:_ _ ->
      if nid = victim then redelivered := bid :: !redelivered);
  System.restart sys victim;
  Atum.run_for atum 120.0;
  Alcotest.(check bool) "catch-up delivered the missed broadcasts" true
    (List.length (System.delivered sys victim) > before);
  let redelivered = List.rev !redelivered in
  Alcotest.(check bool) "both missed broadcasts" true (List.length redelivered >= 2);
  Alcotest.(check (list int)) "in ascending bid order" (List.sort Int.compare redelivered) redelivered;
  Alcotest.(check bool) "catch-up counted" true
    (Atum_sim.Metrics.counter (Atum.metrics atum) "recovery.catchup.delivered" > 0)

(* The bids a node's store lists: its snapshot's delivered set and the
   deliveries logged after it. *)
let stored_bids sys nid =
  let r = Replica.recover (Option.get (System.store sys)) ~node:nid in
  let from_snapshot =
    match Option.bind r.Replica.snapshot (Json.member "delivered") with
    | Some (Json.List bids) -> List.filter_map (function Json.Int b -> Some b | _ -> None) bids
    | _ -> []
  in
  let from_wal =
    List.filter_map
      (fun e ->
        match (Json.member "t" e, Json.member "bid" e) with
        | Some (Json.String "deliver"), Some (Json.Int b) -> Some b
        | _ -> None)
      r.Replica.entries
  in
  List.sort_uniq Int.compare (from_snapshot @ from_wal)

(* A restart first clears what the node delivered, then restores
   exactly the bids its snapshot and WAL list: a broadcast delivered
   before the store was attached is gone until catch-up. *)
let test_restart_restores_stored_bids () =
  let built = build () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  Atum.on_forward atum System.flood_forward;
  let victim =
    List.find (fun m -> m <> built.W.Builder.first) (W.Builder.correct_members built)
  in
  broadcast_settle built atum "before the store";
  let vfs = Vfs.create ~now:(fun () -> Atum.now atum) () in
  ignore (System.attach_store sys (Vfs.backend vfs));
  broadcast_settle built atum "stored-1";
  broadcast_settle built atum "stored-2";
  let before = System.delivered sys victim in
  Alcotest.(check int) "victim delivered all three" 3 (List.length before);
  System.crash sys victim;
  let stored = stored_bids sys victim in
  Alcotest.(check bool) "the store lacks the first" false (List.mem (List.hd before) stored);
  System.restart sys victim;
  Alcotest.(check (list int)) "delivered = the stored bids" stored (System.delivered sys victim)

let test_restart_corrupt_store_falls_back () =
  let built, atum, sys, vfs, victim = restart_setup () in
  broadcast_settle built atum "pre-crash";
  System.crash sys victim;
  Atum.run_for atum 10.0;
  Alcotest.(check bool) "WAL damaged" true
    (Vfs.corrupt_byte vfs ~node:victim ~name:Replica.wal_name ~at:40);
  System.restart sys victim;
  Atum.run_for atum 300.0;
  (match System.restart_reports sys with
  | [ r ] ->
    Alcotest.(check bool) "fallback taken" true r.System.r_fallback;
    Alcotest.(check int) "nothing replayed from a corrupt store" 0 r.System.r_replayed;
    Alcotest.(check bool) "still rejoined" true (Option.is_some r.System.r_rejoined_at)
  | rs -> Alcotest.failf "expected one restart report, got %d" (List.length rs));
  Alcotest.(check int) "fallback counted" 1
    (Atum_sim.Metrics.counter (Atum.metrics atum) "recovery.fallback");
  (match System.check_consistency sys with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let mon = Monitor.attach sys in
  Alcotest.(check int) "monitor clean after fallback recovery" 0 (Monitor.sweep mon)

let test_restart_requires_crashed_node () =
  let _built, _atum, sys, _vfs, victim = restart_setup () in
  match System.restart sys victim with
  | () -> Alcotest.fail "restart of a live node must be rejected"
  | exception Invalid_argument _ -> ()

(* A snapshot cut at a delivery must hold that delivery's effect on the
   application: with a snapshot after every append, a node that crashes
   and restarts gets its AShare index back from the snapshot alone (the
   WAL was truncated), so the entry must already be in it. *)
let test_restart_snapshot_holds_applied_delivery () =
  let built = build () in
  let atum = built.W.Builder.atum in
  let sys = Atum.system atum in
  let vfs = Vfs.create ~now:(fun () -> Atum.now atum) () in
  ignore (System.attach_store ~snapshot_every:1 sys (Vfs.backend vfs));
  let ash = Ashare.attach atum ~rho:1 in
  Ashare.enable_persistence ash;
  let owner = built.W.Builder.first in
  let victim =
    match List.filter (fun m -> m <> owner) (W.Builder.correct_members built) with
    | m :: _ -> m
    | [] -> Alcotest.fail "no victim available"
  in
  let indexed () =
    Ashare.replica_count ash ~node:victim ~owner:(Ashare.owner_name owner) ~name:"doc" > 0
  in
  Ashare.put ash ~owner ~name:"doc" (Ashare.Real "contents");
  Atum.run_for atum 60.0;
  Alcotest.(check bool) "victim indexed the put" true (indexed ());
  System.crash sys victim;
  Atum.run_for atum 10.0;
  System.restart sys victim;
  Atum.run_for atum 120.0;
  (match System.restart_reports sys with
  | [ r ] ->
    Alcotest.(check bool) "no fallback" false r.System.r_fallback;
    Alcotest.(check bool) "caught up" true (Option.is_some r.System.r_caught_up_at)
  | rs -> Alcotest.failf "expected one restart report, got %d" (List.length rs));
  Alcotest.(check bool) "restored index holds the entry" true (indexed ())

(* Same seed, same damage, byte-identical restart scenario artifacts. *)
let test_restart_scenario_deterministic () =
  let run () =
    let built = W.Builder.grow ~n:40 ~seed:5 ~monitor:false () in
    let r = W.Resilience.run ~messages_per_phase:4 ~attackers:0 ~restart:true built ~seed:5 () in
    Json.to_string (Atum_sim.Artifact.(encode resilience) r)
  in
  Alcotest.(check string) "byte-identical restart runs" (run ()) (run ())

let () =
  Alcotest.run "store"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "truncated tail" `Quick test_wal_truncated_tail;
          Alcotest.test_case "corrupt record" `Quick test_wal_corrupt_record;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "append after truncate" `Quick test_vfs_append_after_truncate;
          Alcotest.test_case "remove then recreate" `Quick test_vfs_remove_then_recreate;
          Alcotest.test_case "corrupt then replay" `Quick test_vfs_corrupt_then_replay;
        ] );
      ( "golden",
        [
          Alcotest.test_case "store bytes" `Quick test_store_golden_bytes;
          Alcotest.test_case "durable run bytes" `Quick test_store_golden_durable_run;
          Alcotest.test_case "frame follows the delivered body" `Quick
            test_frame_follows_delivered_body;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip + auth" `Quick test_snapshot_roundtrip_and_auth;
          Alcotest.test_case "ashare state streamed as the tree's bytes" `Quick
            test_ashare_streamed_state;
        ] );
      ( "replica",
        [
          Alcotest.test_case "snapshot cycle" `Quick test_replica_snapshot_cycle;
          Alcotest.test_case "corrupt detection" `Quick test_replica_corrupt_detection;
        ] );
      ( "restart",
        [
          Alcotest.test_case "recovers durable state" `Quick test_restart_recovers_durable_state;
          Alcotest.test_case "catch-up redelivers missed" `Quick
            test_restart_catchup_redelivers_missed;
          Alcotest.test_case "restores the stored bids" `Quick test_restart_restores_stored_bids;
          Alcotest.test_case "corrupt store falls back" `Quick
            test_restart_corrupt_store_falls_back;
          Alcotest.test_case "rejects live node" `Quick test_restart_requires_crashed_node;
          Alcotest.test_case "snapshot holds applied delivery" `Quick
            test_restart_snapshot_holds_applied_delivery;
          Alcotest.test_case "scenario deterministic" `Slow test_restart_scenario_deterministic;
        ] );
    ]
