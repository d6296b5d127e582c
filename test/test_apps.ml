open Atum_apps

let quick_params =
  { Atum_core.Params.default with Atum_core.Params.hc = 3; rwl = 4; round_duration = 0.5; seed = 3 }

(* ------------------------------------------------------------------ *)
(* Kv_index                                                            *)
(* ------------------------------------------------------------------ *)

let k owner name = { Kv_index.owner; name }

let test_index_put_get () =
  let ix = Kv_index.create () in
  Kv_index.put ix (k "alice" "song.mp3") 1;
  Kv_index.put ix (k "bob" "movie.mkv") 2;
  Alcotest.(check (option int)) "get" (Some 1) (Kv_index.get ix (k "alice" "song.mp3"));
  Alcotest.(check (option int)) "missing" None (Kv_index.get ix (k "alice" "movie.mkv"));
  Alcotest.(check int) "size" 2 (Kv_index.size ix)

let test_index_overwrite () =
  let ix = Kv_index.create () in
  Kv_index.put ix (k "a" "f") 1;
  Kv_index.put ix (k "a" "f") 2;
  Alcotest.(check (option int)) "overwritten" (Some 2) (Kv_index.get ix (k "a" "f"));
  Alcotest.(check int) "no duplicate" 1 (Kv_index.size ix)

let test_index_remove () =
  let ix = Kv_index.create () in
  Kv_index.put ix (k "a" "f") 1;
  Kv_index.remove ix (k "a" "f");
  Alcotest.(check bool) "gone" false (Kv_index.mem ix (k "a" "f"))

let test_index_namespaces_disjoint () =
  let ix = Kv_index.create () in
  Kv_index.put ix (k "alice" "file") 1;
  Kv_index.put ix (k "bob" "file") 2;
  Alcotest.(check int) "same name, two owners" 2 (Kv_index.size ix)

let test_index_search () =
  let ix = Kv_index.create () in
  Kv_index.put ix (k "alice" "holiday-photos.zip") 1;
  Kv_index.put ix (k "bob" "report.pdf") 2;
  Kv_index.put ix (k "carol" "holiday-video.mp4") 3;
  let hits = Kv_index.search ix "holiday" in
  Alcotest.(check int) "two hits" 2 (List.length hits);
  let by_owner = Kv_index.search ix "bob" in
  Alcotest.(check int) "owner match" 1 (List.length by_owner);
  Alcotest.(check int) "empty term matches all" 3 (List.length (Kv_index.search ix ""))

let test_index_keys_sorted () =
  let ix = Kv_index.create () in
  Kv_index.put ix (k "b" "1") 0;
  Kv_index.put ix (k "a" "2") 0;
  Kv_index.put ix (k "a" "1") 0;
  Alcotest.(check (list (pair string string))) "sorted"
    [ ("a", "1"); ("a", "2"); ("b", "1") ]
    (List.map (fun { Kv_index.owner; name } -> (owner, name)) (Kv_index.keys ix))

let test_index_owner_files_range () =
  let ix = Kv_index.create () in
  Kv_index.put ix (k "alice" "a.txt") 1;
  Kv_index.put ix (k "alice" "b.txt") 2;
  Kv_index.put ix (k "bob" "a.txt") 3;
  Kv_index.put ix (k "albert" "z.txt") 4;
  let files = Kv_index.owner_files ix "alice" in
  Alcotest.(check (list string)) "alice's namespace only" [ "a.txt"; "b.txt" ]
    (List.map (fun ({ Kv_index.name; _ }, _) -> name) files)

let prop_index_model =
  QCheck.Test.make ~name:"kv_index behaves like an association map" ~count:200
    QCheck.(list (pair (pair small_string small_string) small_int))
    (fun ops ->
      let ix = Kv_index.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun ((o, n), v) ->
          Kv_index.put ix (k o n) v;
          Hashtbl.replace model (o, n) v)
        ops;
      Hashtbl.fold
        (fun (o, n) v acc -> acc && Kv_index.get ix (k o n) = Some v)
        model true
      && Kv_index.size ix = Hashtbl.length model)

(* Snapshot-codec round-trip: an index rebuilt from its durable JSON
   form must be indistinguishable from the original. *)
let prop_index_snapshot_roundtrip =
  let module Json = Atum_util.Json in
  QCheck.Test.make ~name:"kv_index snapshot codec roundtrips" ~count:200
    QCheck.(list (pair bool (pair (pair small_string small_string) small_int)))
    (fun ops ->
      let ix = Kv_index.create () in
      List.iter
        (fun (add, ((o, n), v)) ->
          if add then Kv_index.put ix (k o n) v else Kv_index.remove ix (k o n))
        ops;
      (* The durable form, in ascending key order as snapshots write it. *)
      let to_json ix =
        Json.List
          (List.rev
             (Kv_index.fold
                (fun key v acc ->
                  Json.Obj
                    [
                      ("owner", Json.String key.Kv_index.owner);
                      ("name", Json.String key.Kv_index.name);
                      ("value", Json.Int v);
                    ]
                  :: acc)
                ix []))
      in
      let blob = to_json ix in
      match
        Kv_index.of_json (function Json.Int v -> Some v | _ -> None) blob
      with
      | None -> false
      | Some ix' ->
        let dump t = Kv_index.fold (fun key v acc -> (key, v) :: acc) t [] in
        dump ix' = dump ix
        (* and the serialized form itself is stable *)
        && Json.equal blob (to_json ix'))

let test_index_of_json_rejects_malformed () =
  let module Json = Atum_util.Json in
  let dec = function Json.Int v -> Some v | _ -> None in
  List.iter
    (fun j ->
      match Kv_index.of_json dec j with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted malformed snapshot %s" (Json.to_string j))
    [
      Json.Int 3;
      Json.List [ Json.Int 1 ];
      Json.List [ Json.Obj [ ("owner", Json.String "a") ] ];
      Json.List
        [
          Json.Obj
            [ ("owner", Json.String "a"); ("name", Json.String "f");
              ("value", Json.String "not an int") ];
        ];
    ]

(* ------------------------------------------------------------------ *)
(* ASub                                                                *)
(* ------------------------------------------------------------------ *)

let test_asub_topic_lifecycle () =
  let s = Asub.create ~params:quick_params () in
  Asub.create_topic s "news";
  Asub.create_topic s "sports";
  Alcotest.(check (list string)) "topics" [ "news"; "sports" ] (Asub.topics s);
  Alcotest.check_raises "duplicate topic" (Invalid_argument "Asub: duplicate topic news")
    (fun () -> Asub.create_topic s "news")

let test_asub_subscribe_publish () =
  let s = Asub.create ~params:quick_params () in
  Asub.create_topic s "news";
  Asub.subscribe s ~topic:"news" "alice";
  Asub.subscribe s ~topic:"news" "bob";
  Asub.run_for s 120.0;
  Alcotest.(check bool) "alice subscribed" true (Asub.is_subscribed s ~topic:"news" "alice");
  let events = ref [] in
  Asub.on_event s (fun e -> events := e :: !events);
  Asub.publish s ~topic:"news" ~as_:"alice" "headline";
  Asub.run_for s 60.0;
  let subs = List.length (Asub.subscribers s ~topic:"news") in
  Alcotest.(check int) "everyone got it" subs (List.length !events);
  List.iter
    (fun (e : Asub.event) ->
      Alcotest.(check string) "topic" "news" e.Asub.topic;
      Alcotest.(check string) "publisher" "alice" e.Asub.publisher;
      Alcotest.(check string) "payload" "headline" e.Asub.payload)
    !events

let test_asub_unsubscribe () =
  let s = Asub.create ~params:quick_params () in
  Asub.create_topic s "t";
  Asub.subscribe s ~topic:"t" "alice";
  Asub.run_for s 120.0;
  Asub.unsubscribe s ~topic:"t" "alice";
  Asub.run_for s 120.0;
  Alcotest.(check bool) "gone" false (Asub.is_subscribed s ~topic:"t" "alice");
  let events = ref 0 in
  Asub.on_event s (fun _ -> incr events);
  Asub.publish s ~topic:"t" ~as_:"@root" "after";
  Asub.run_for s 30.0;
  Alcotest.(check int) "only root delivers" 1 !events

let test_asub_topics_isolated () =
  let s = Asub.create ~params:quick_params () in
  Asub.create_topic s "a";
  Asub.create_topic s "b";
  Asub.subscribe s ~topic:"a" "alice";
  Asub.run_for s 120.0;
  let seen = ref [] in
  Asub.on_event s (fun e -> seen := e.Asub.topic :: !seen);
  Asub.publish s ~topic:"a" ~as_:"@root" "x";
  Asub.run_for s 30.0;
  Alcotest.(check bool) "no leak to topic b" true (List.for_all (( = ) "a") !seen);
  Alcotest.(check bool) "delivered in a" true (!seen <> [])

let test_asub_publish_requires_subscription () =
  let s = Asub.create ~params:quick_params () in
  Asub.create_topic s "t";
  Alcotest.check_raises "stranger cannot publish"
    (Invalid_argument "Asub: publisher not subscribed: mallory") (fun () ->
      Asub.publish s ~topic:"t" ~as_:"mallory" "spam")

(* ------------------------------------------------------------------ *)
(* AShare                                                              *)
(* ------------------------------------------------------------------ *)

let make_share ?(n = 12) ?(rho = 3) ?(seed = 21) () =
  let built = Atum_workload.Builder.grow ~params:{ quick_params with seed } ~n ~seed () in
  let share = Ashare.attach built.Atum_workload.Builder.atum ~rho in
  (built, share)

let run_share share dt = Atum_core.Atum.run_for (Ashare.atum share) dt

let test_ashare_put_indexes_everywhere () =
  let built, share = make_share () in
  let owner = List.hd (Atum_workload.Builder.correct_members built) in
  Ashare.put share ~owner ~name:"doc.txt" (Ashare.Real "hello world");
  run_share share 120.0;
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d indexed it" node)
        true
        (Ashare.replica_count share ~node ~owner:(Ashare.owner_name owner) ~name:"doc.txt" >= 1))
    (Atum_workload.Builder.correct_members built)

let test_ashare_replication_reaches_rho () =
  let built, share = make_share ~rho:4 () in
  let owner = List.hd (Atum_workload.Builder.correct_members built) in
  Ashare.put share ~owner ~name:"popular.bin" (Ashare.Real (String.make 2048 'p'));
  (* Let the feedback loop run several broadcast generations. *)
  run_share share 2_000.0;
  let node = List.hd (Atum_workload.Builder.correct_members built) in
  let c = Ashare.replica_count share ~node ~owner:(Ashare.owner_name owner) ~name:"popular.bin" in
  Alcotest.(check bool) (Printf.sprintf "at least rho replicas (got %d)" c) true (c >= 4)

let test_ashare_get_returns_content () =
  let built, share = make_share () in
  let members = Atum_workload.Builder.correct_members built in
  let owner = List.hd members and reader = List.nth members 2 in
  let content = String.make 4096 'z' in
  Ashare.put share ~owner ~name:"data.bin" (Ashare.Real content);
  run_share share 120.0;
  let got = ref None in
  Ashare.get share ~reader ~owner:(Ashare.owner_name owner) ~name:"data.bin" ~k:(fun r ->
      got := r);
  run_share share 600.0;
  match !got with
  | Some r ->
    Alcotest.(check (option string)) "content" (Some content) r.Ashare.data;
    Alcotest.(check int) "no corruption" 0 r.Ashare.corrupted_chunks;
    Alcotest.(check bool) "positive latency" true (r.Ashare.latency > 0.0)
  | None -> Alcotest.fail "GET failed"

let test_ashare_get_unknown_file () =
  let built, share = make_share () in
  let reader = List.hd (Atum_workload.Builder.correct_members built) in
  let got = ref (Some { Ashare.latency = 0.0; pulled_mb = 0.0; corrupted_chunks = 0; data = None }) in
  Ashare.get share ~reader ~owner:"nobody" ~name:"ghost" ~k:(fun r -> got := r);
  run_share share 10.0;
  Alcotest.(check bool) "None for unknown file" true (!got = None)

let test_ashare_corrupted_replicas_repulled () =
  let built, share = make_share ~n:14 () in
  let members = Atum_workload.Builder.correct_members built in
  let owner = List.hd members in
  Ashare.put share ~owner ~name:"victim.bin" ~chunk_count:10 (Ashare.Synthetic 10.0);
  run_share share 120.0;
  (* Two corrupting holders, two correct ones. *)
  let sys = Atum_core.Atum.system (Ashare.atum share) in
  let h1 = List.nth members 3 and h2 = List.nth members 4 in
  let c1 = List.nth members 5 and c2 = List.nth members 6 in
  Atum_core.System.make_byzantine sys h1;
  Atum_core.System.make_byzantine sys h2;
  Ashare.place_replicas share ~owner ~name:"victim.bin" ~holders:[ h1; h2; c1; c2 ];
  let reader = List.nth members 7 in
  let got = ref None in
  Ashare.get share ~reader ~owner:(Ashare.owner_name owner) ~name:"victim.bin" ~k:(fun r ->
      got := r);
  run_share share 600.0;
  (match !got with
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "some chunks corrupted (%d)" r.Ashare.corrupted_chunks)
      true
      (r.Ashare.corrupted_chunks > 0);
    Alcotest.(check bool) "re-pulled extra data" true (r.Ashare.pulled_mb > 10.0)
  | None -> Alcotest.fail "GET failed despite correct replicas");
  (* Clean read of the same size for comparison. *)
  Ashare.place_replicas share ~owner ~name:"victim.bin" ~holders:[ c1; c2 ];
  let clean = ref None in
  Ashare.get share ~reader ~owner:(Ashare.owner_name owner) ~name:"victim.bin" ~k:(fun r ->
      clean := r);
  run_share share 600.0;
  match (!got, !clean) with
  | Some dirty, Some clean ->
    Alcotest.(check bool) "corruption costs latency" true
      (dirty.Ashare.latency > clean.Ashare.latency)
  | _ -> Alcotest.fail "comparison GET failed"

let test_ashare_delete () =
  let built, share = make_share () in
  let members = Atum_workload.Builder.correct_members built in
  let owner = List.hd members in
  Ashare.put share ~owner ~name:"temp.txt" (Ashare.Real "bye");
  run_share share 120.0;
  Ashare.delete share ~owner ~name:"temp.txt";
  run_share share 120.0;
  List.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "node %d dropped metadata" node)
        0
        (Ashare.replica_count share ~node ~owner:(Ashare.owner_name owner) ~name:"temp.txt");
      Alcotest.(check bool) "replica dropped" false
        (Ashare.stores share ~node ~owner:(Ashare.owner_name owner) ~name:"temp.txt"))
    members

let test_ashare_search () =
  let built, share = make_share () in
  let members = Atum_workload.Builder.correct_members built in
  let owner = List.hd members in
  Ashare.put share ~owner ~name:"summer-photos.zip" (Ashare.Real "a");
  Ashare.put share ~owner ~name:"winter-photos.zip" (Ashare.Real "b");
  Ashare.put share ~owner ~name:"taxes.pdf" (Ashare.Real "c");
  run_share share 200.0;
  let node = List.nth members 2 in
  Alcotest.(check int) "photos" 2 (List.length (Ashare.search share ~node "photos"));
  Alcotest.(check int) "by owner" 3
    (List.length (Ashare.search share ~node (Ashare.owner_name owner)))

let test_ashare_indexes_converge () =
  let built, share = make_share () in
  let owner = List.hd (Atum_workload.Builder.correct_members built) in
  Ashare.put share ~owner ~name:"one" (Ashare.Real "1");
  Ashare.put share ~owner ~name:"two" (Ashare.Real "2");
  run_share share 2_000.0;
  Alcotest.(check bool) "soft state converged" true (Ashare.indexes_converged share)

let test_ashare_local_read_is_cheap () =
  let built, share = make_share () in
  let members = Atum_workload.Builder.correct_members built in
  let owner = List.hd members in
  Ashare.put share ~owner ~name:"mine.bin" ~chunk_count:4 (Ashare.Synthetic 8.0) ;
  run_share share 120.0;
  (* The owner reads its own replica: no network pull at all. *)
  let got = ref None in
  Ashare.get share ~reader:owner ~owner:(Ashare.owner_name owner) ~name:"mine.bin"
    ~k:(fun r -> got := r);
  run_share share 120.0;
  match !got with
  | Some r ->
    Alcotest.(check (float 1e-9)) "nothing pulled" 0.0 r.Ashare.pulled_mb;
    Alcotest.(check bool) "cheaper than a remote read" true (r.Ashare.latency < 0.5)
  | None -> Alcotest.fail "local GET failed"

let test_ashare_all_replicas_corrupt_fails () =
  let built, share = make_share ~n:12 () in
  let members = Atum_workload.Builder.correct_members built in
  let owner = List.hd members in
  Ashare.put share ~owner ~name:"doomed.bin" ~chunk_count:10 (Ashare.Synthetic 10.0);
  run_share share 120.0;
  let sys = Atum_core.Atum.system (Ashare.atum share) in
  let h1 = List.nth members 3 and h2 = List.nth members 4 in
  Atum_core.System.make_byzantine sys h1;
  Atum_core.System.make_byzantine sys h2;
  Ashare.place_replicas share ~owner ~name:"doomed.bin" ~holders:[ h1; h2 ];
  let reader = List.nth members 5 in
  let got = ref (Some { Ashare.latency = 0.0; pulled_mb = 0.0; corrupted_chunks = 0; data = None }) in
  Ashare.get share ~reader ~owner:(Ashare.owner_name owner) ~name:"doomed.bin"
    ~k:(fun r -> got := r);
  run_share share 600.0;
  Alcotest.(check bool) "no correct replica -> failure" true (!got = None)

let test_ashare_rho_one_means_no_replication () =
  let built, share = make_share ~rho:1 () in
  let members = Atum_workload.Builder.correct_members built in
  let owner = List.hd members in
  Ashare.put share ~owner ~name:"lonely.txt" (Ashare.Real "just me");
  run_share share 1_000.0;
  let node = List.nth members 2 in
  Alcotest.(check int) "owner is the only replica" 1
    (Ashare.replica_count share ~node ~owner:(Ashare.owner_name owner) ~name:"lonely.txt")

(* ------------------------------------------------------------------ *)
(* AStream                                                             *)
(* ------------------------------------------------------------------ *)

let make_stream ?(n = 20) ?(cycles_used = 1) ?(seed = 33) () =
  let built = Atum_workload.Builder.grow ~params:{ quick_params with seed } ~n ~seed () in
  let forest =
    Astream.build ~atum:built.Atum_workload.Builder.atum
      ~source:built.Atum_workload.Builder.first ~cycles_used ~seed
  in
  (built, forest)

let test_astream_forest_complete () =
  let _, forest = make_stream () in
  match Astream.check_forest forest with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_astream_every_node_has_parents () =
  let built, forest = make_stream () in
  List.iter
    (fun nid ->
      if nid <> Astream.source forest then
        Alcotest.(check bool)
          (Printf.sprintf "node %d has parents" nid)
          true
          (Astream.parents forest nid <> []))
    (Atum_workload.Builder.correct_members built)

let test_astream_stream_reaches_everyone () =
  let built, forest = make_stream () in
  let stats = Astream.stream forest ~chunk_mb:1.0 in
  Alcotest.(check (list int)) "no unreached nodes" [] stats.Astream.unreached;
  Alcotest.(check int) "latency for every correct node"
    (List.length (Atum_workload.Builder.correct_members built) - 1)
    (List.length stats.Astream.per_node_latency);
  Alcotest.(check bool) "positive latency" true (stats.Astream.mean_latency > 0.0)

let test_astream_double_cycle_faster () =
  let built = Atum_workload.Builder.grow ~params:{ quick_params with seed = 44 } ~n:40 ~seed:44 () in
  let lat cycles_used =
    let f =
      Astream.build ~atum:built.Atum_workload.Builder.atum
        ~source:built.Atum_workload.Builder.first ~cycles_used ~seed:44
    in
    (Astream.stream f ~chunk_mb:1.0).Astream.mean_latency
  in
  let single = lat 1 and double = lat 2 in
  Alcotest.(check bool)
    (Printf.sprintf "double (%.3f) <= single (%.3f)" double single)
    true (double <= single)

let test_astream_tolerates_byzantine_parents () =
  let built, forest = make_stream ~n:24 ~seed:55 () in
  (* Make up to f nodes per vgroup Byzantine, then confirm everyone is
     still reachable through correct parents. *)
  let atum = built.Atum_workload.Builder.atum in
  let sys = Atum_core.Atum.system atum in
  let rng = Atum_util.Rng.create 7 in
  List.iter
    (fun vid ->
      let members =
        List.filter (fun m -> m <> built.Atum_workload.Builder.first)
          (Atum_core.Atum.members_of_vgroup atum vid)
      in
      let g = List.length (Atum_core.Atum.members_of_vgroup atum vid) in
      let f = Atum_smr.Smr_intf.sync_f ~group_size:g in
      let byz = Atum_util.Rng.sample_without_replacement rng (min f (List.length members)) members in
      List.iter (fun b -> Atum_core.System.make_byzantine sys b) byz)
    (Atum_overlay.Hgraph.vertices (Atum_core.System.hgraph sys));
  let stats = Astream.stream forest ~chunk_mb:1.0 in
  Alcotest.(check (list int)) "still reaches every correct node" [] stats.Astream.unreached

let test_astream_simulate_delivers_all_chunks () =
  let _, forest = make_stream () in
  let stats = Astream.simulate forest ~chunk_mb:1.0 in
  Alcotest.(check (list int)) "every correct node got the full stream" []
    stats.Astream.sim_unreached;
  Alcotest.(check bool) "positive latency" true (stats.Astream.sim_mean_latency > 0.0)

let test_astream_simulate_tolerates_byzantine () =
  let built, forest = make_stream ~n:24 ~seed:77 () in
  let sys = Atum_core.Atum.system built.Atum_workload.Builder.atum in
  let rng = Atum_util.Rng.create 9 in
  (* one Byzantine member per vgroup, sparing the source *)
  List.iter
    (fun vid ->
      let members =
        List.filter (fun m -> m <> built.Atum_workload.Builder.first)
          (Atum_core.Atum.members_of_vgroup built.Atum_workload.Builder.atum vid)
      in
      match members with
      | [] -> ()
      | ms -> Atum_core.System.make_byzantine sys (Atum_util.Rng.pick rng ms))
    (Atum_overlay.Hgraph.vertices (Atum_core.System.hgraph sys));
  let stats = Astream.simulate forest ~chunk_mb:1.0 in
  Alcotest.(check (list int)) "full delivery despite Byzantine relays" []
    stats.Astream.sim_unreached;
  Alcotest.(check bool) "some probing happened or not needed" true
    (stats.Astream.parent_switches >= 0)

let test_astream_simulate_matches_analytic_ordering () =
  (* The event-driven simulation and the analytic model must agree on
     who is slow: deeper systems have higher latency in both. *)
  let _, small_forest = make_stream ~n:14 ~seed:88 () in
  let _, big_forest = make_stream ~n:40 ~seed:89 () in
  let s1 = (Astream.simulate small_forest ~chunk_mb:1.0).Astream.sim_mean_latency in
  let s2 = (Astream.simulate big_forest ~chunk_mb:1.0).Astream.sim_mean_latency in
  Alcotest.(check bool)
    (Printf.sprintf "bigger is slower (%.3f <= %.3f + slack)" s1 s2)
    true (s1 <= s2 +. 0.15)

let test_astream_bad_cycles_used () =
  let built = Atum_workload.Builder.grow ~params:{ quick_params with seed = 66 } ~n:8 ~seed:66 () in
  Alcotest.check_raises "cycles_used out of range"
    (Invalid_argument "Astream.build: cycles_used out of range") (fun () ->
      ignore
        (Astream.build ~atum:built.Atum_workload.Builder.atum
           ~source:built.Atum_workload.Builder.first ~cycles_used:99 ~seed:1))

(* ------------------------------------------------------------------ *)
(* DHT (the paper's footnote-5 future work)                            *)
(* ------------------------------------------------------------------ *)

let make_dht ?(n = 128) ?(replicas = 4) () =
  Dht.build ~replicas ~node_ids:(List.init n Fun.id) ()

let test_dht_positions_unique () =
  let d = make_dht () in
  let positions = List.init 128 (Dht.position_of d) in
  Alcotest.(check int) "all distinct" 128 (List.length (List.sort_uniq compare positions))

let test_dht_holders () =
  let d = make_dht ~replicas:5 () in
  let hs = Dht.holders d "some-file" in
  Alcotest.(check int) "replica count" 5 (List.length hs);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare hs));
  (* deterministic *)
  Alcotest.(check (list int)) "stable" hs (Dht.holders d "some-file")

let test_dht_lookup_clean () =
  let d = make_dht () in
  for i = 0 to 30 do
    let r = Dht.lookup d ~from:(i * 4) ~key:(Printf.sprintf "k-%d" i) in
    (match r.Dht.responsible with
    | Some owner ->
      Alcotest.(check bool) "owner is a holder" true
        (List.mem owner (Dht.holders d (Printf.sprintf "k-%d" i)))
    | None -> Alcotest.fail "clean lookup failed");
    Alcotest.(check bool)
      (Printf.sprintf "hops %d bounded" r.Dht.hops)
      true
      (r.Dht.hops <= 30)
  done

let test_dht_hops_logarithmic () =
  let small = make_dht ~n:32 () in
  let big = make_dht ~n:512 () in
  let hs = Dht.mean_lookup_hops small ~samples:300 ~seed:1 in
  let hb = Dht.mean_lookup_hops big ~samples:300 ~seed:1 in
  Alcotest.(check bool)
    (Printf.sprintf "hops grow slowly (%.2f -> %.2f)" hs hb)
    true
    (hb > hs && hb < 3.0 *. hs && hb <= 12.0)

let test_dht_survives_churn_with_detours () =
  let d = make_dht ~n:200 () in
  let rng = Atum_util.Rng.create 3 in
  let dead = Atum_util.Rng.sample_without_replacement rng 40 (List.init 200 Fun.id) in
  List.iter (Dht.mark_dead d) dead;
  let rate = Dht.lookup_success_rate d ~samples:400 ~seed:5 in
  Alcotest.(check bool)
    (Printf.sprintf "success %.3f despite 20%% departures" rate)
    true (rate >= 0.90);
  (* stabilization restores clean routing *)
  let fresh = Dht.rebuild d in
  Alcotest.(check int) "rebuilt over the live set" 160 (Dht.size fresh);
  Alcotest.(check (float 0.001)) "clean again" 1.0
    (Dht.lookup_success_rate fresh ~samples:300 ~seed:7)

let test_dht_byzantine_degrades_lookups () =
  (* The quantitative version of the paper's footnote: Byzantine
     routers hurt the DHT where Atum's broadcast index is immune. *)
  let clean = make_dht ~n:200 () in
  let dirty = make_dht ~n:200 () in
  let rng = Atum_util.Rng.create 11 in
  let byz = Atum_util.Rng.sample_without_replacement rng 50 (List.init 200 Fun.id) in
  List.iter (Dht.mark_byzantine dirty) byz;
  let clean_rate = Dht.lookup_success_rate clean ~samples:400 ~seed:13 in
  let dirty_rate = Dht.lookup_success_rate dirty ~samples:400 ~seed:13 in
  Alcotest.(check (float 0.001)) "clean is perfect" 1.0 clean_rate;
  Alcotest.(check bool)
    (Printf.sprintf "25%% byzantine degrade lookups (%.3f)" dirty_rate)
    true
    (dirty_rate < 1.0);
  (* rebuild cannot wash out quiet Byzantine routers *)
  let rebuilt = Dht.rebuild dirty in
  Alcotest.(check bool) "stabilization does not help against byzantine" true
    (Dht.lookup_success_rate rebuilt ~samples:400 ~seed:13 < 1.0)

let test_dht_more_replicas_help () =
  let rate replicas =
    let d = Dht.build ~replicas ~node_ids:(List.init 150 Fun.id) () in
    let rng = Atum_util.Rng.create 17 in
    List.iter (Dht.mark_byzantine d)
      (Atum_util.Rng.sample_without_replacement rng 45 (List.init 150 Fun.id));
    Dht.lookup_success_rate d ~samples:400 ~seed:19
  in
  let thin = rate 1 and thick = rate 6 in
  Alcotest.(check bool)
    (Printf.sprintf "replication helps (%.3f -> %.3f)" thin thick)
    true (thick >= thin)

let test_dht_ring_wraparound () =
  (* Keys whose position exceeds every node position wrap to the first
     ring entry. *)
  let d = make_dht ~n:16 () in
  for i = 0 to 200 do
    let key = Printf.sprintf "wrap-%d" i in
    let hs = Dht.holders d key in
    Alcotest.(check bool) "holders nonempty" true (hs <> []);
    List.iter
      (fun h -> Alcotest.(check bool) "holder is a node" true (h >= 0 && h < 16))
      hs
  done

let test_dht_rebuild_keeps_byzantine_marks () =
  let d = make_dht ~n:30 () in
  Dht.mark_byzantine d 3;
  Dht.mark_dead d 4;
  let fresh = Dht.rebuild d in
  Alcotest.(check int) "dead removed" 29 (Dht.size fresh);
  (* a lookup from the byzantine node is still refused *)
  let r = Dht.lookup fresh ~from:3 ~key:"x" in
  ignore r;
  Alcotest.(check bool) "byzantine mark survives" true
    (Dht.lookup_success_rate fresh ~samples:200 ~seed:1 <= 1.0)

let test_dht_bad_args () =
  Alcotest.check_raises "no nodes" (Invalid_argument "Dht.build: need at least one node")
    (fun () -> ignore (Dht.build ~node_ids:[] ()));
  Alcotest.check_raises "no replicas" (Invalid_argument "Dht.build: replicas must be at least 1")
    (fun () -> ignore (Dht.build ~replicas:0 ~node_ids:[ 1 ] ()))

let () =
  Alcotest.run "apps"
    [
      ( "kv-index",
        [
          Alcotest.test_case "put/get" `Quick test_index_put_get;
          Alcotest.test_case "overwrite" `Quick test_index_overwrite;
          Alcotest.test_case "remove" `Quick test_index_remove;
          Alcotest.test_case "namespaces" `Quick test_index_namespaces_disjoint;
          Alcotest.test_case "search" `Quick test_index_search;
          Alcotest.test_case "keys sorted" `Quick test_index_keys_sorted;
          Alcotest.test_case "owner range scan" `Quick test_index_owner_files_range;
          Alcotest.test_case "of_json rejects malformed" `Quick
            test_index_of_json_rejects_malformed;
          QCheck_alcotest.to_alcotest prop_index_model;
          QCheck_alcotest.to_alcotest prop_index_snapshot_roundtrip;
        ] );
      ( "asub",
        [
          Alcotest.test_case "topic lifecycle" `Quick test_asub_topic_lifecycle;
          Alcotest.test_case "subscribe/publish" `Slow test_asub_subscribe_publish;
          Alcotest.test_case "unsubscribe" `Slow test_asub_unsubscribe;
          Alcotest.test_case "topics isolated" `Slow test_asub_topics_isolated;
          Alcotest.test_case "publish needs subscription" `Quick test_asub_publish_requires_subscription;
        ] );
      ( "ashare",
        [
          Alcotest.test_case "put indexes everywhere" `Slow test_ashare_put_indexes_everywhere;
          Alcotest.test_case "replication reaches rho" `Slow test_ashare_replication_reaches_rho;
          Alcotest.test_case "get returns content" `Slow test_ashare_get_returns_content;
          Alcotest.test_case "get unknown" `Slow test_ashare_get_unknown_file;
          Alcotest.test_case "corruption re-pull" `Slow test_ashare_corrupted_replicas_repulled;
          Alcotest.test_case "delete" `Slow test_ashare_delete;
          Alcotest.test_case "search" `Slow test_ashare_search;
          Alcotest.test_case "indexes converge" `Slow test_ashare_indexes_converge;
          Alcotest.test_case "local read" `Slow test_ashare_local_read_is_cheap;
          Alcotest.test_case "all corrupt fails" `Slow test_ashare_all_replicas_corrupt_fails;
          Alcotest.test_case "rho=1 no replication" `Slow test_ashare_rho_one_means_no_replication;
        ] );
      ( "dht",
        [
          Alcotest.test_case "positions unique" `Quick test_dht_positions_unique;
          Alcotest.test_case "holders" `Quick test_dht_holders;
          Alcotest.test_case "clean lookups" `Quick test_dht_lookup_clean;
          Alcotest.test_case "logarithmic hops" `Quick test_dht_hops_logarithmic;
          Alcotest.test_case "churn detours" `Quick test_dht_survives_churn_with_detours;
          Alcotest.test_case "byzantine degradation" `Quick test_dht_byzantine_degrades_lookups;
          Alcotest.test_case "replication helps" `Quick test_dht_more_replicas_help;
          Alcotest.test_case "bad args" `Quick test_dht_bad_args;
          Alcotest.test_case "ring wraparound" `Quick test_dht_ring_wraparound;
          Alcotest.test_case "rebuild keeps byz" `Quick test_dht_rebuild_keeps_byzantine_marks;
        ] );
      ( "astream",
        [
          Alcotest.test_case "forest complete" `Slow test_astream_forest_complete;
          Alcotest.test_case "parents exist" `Slow test_astream_every_node_has_parents;
          Alcotest.test_case "stream reaches all" `Slow test_astream_stream_reaches_everyone;
          Alcotest.test_case "double cycle faster" `Slow test_astream_double_cycle_faster;
          Alcotest.test_case "byzantine parents" `Slow test_astream_tolerates_byzantine_parents;
          Alcotest.test_case "simulate full delivery" `Slow test_astream_simulate_delivers_all_chunks;
          Alcotest.test_case "simulate byzantine" `Slow test_astream_simulate_tolerates_byzantine;
          Alcotest.test_case "simulate vs analytic" `Slow test_astream_simulate_matches_analytic_ordering;
          Alcotest.test_case "bad cycles" `Slow test_astream_bad_cycles_used;
        ] );
    ]
