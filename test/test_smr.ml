open Atum_smr

let keyring_for n =
  let kr = Atum_crypto.Signature.create_keyring ~seed:99 in
  for i = 0 to n - 1 do
    Atum_crypto.Signature.register kr ("node-" ^ string_of_int i)
  done;
  kr

(* ------------------------------------------------------------------ *)
(* Dolev-Strong: lock-step harness                                     *)
(* ------------------------------------------------------------------ *)

(* Drives one broadcast instance over a perfectly synchronous network.
   [quiet] nodes are Byzantine and never relay. Returns the decision of
   every correct node. *)
let run_ds ?(quiet = []) ~g ~sender ~init () =
  let f = Smr_intf.sync_f ~group_size:g in
  let kr = keyring_for g in
  let members = List.init g Fun.id in
  let correct = List.filter (fun i -> not (List.mem i quiet)) members in
  let instances =
    List.map
      (fun self ->
        ( self,
          Dolev_strong.create ~keyring:kr ~self ~members ~sender ~f
            ~instance_id:"test" ))
      correct
  in
  let pending = ref (init (List.assoc_opt sender instances)) in
  for round = 1 to f + 1 do
    List.iter
      (fun (dst, src, m) ->
        if not (List.mem src quiet) || src = sender then
          match List.assoc_opt dst instances with
          | Some inst -> Dolev_strong.receive inst ~src m
          | None -> ())
      (List.rev !pending);
    pending := [];
    List.iter
      (fun (self, inst) ->
        if self <> sender || not (List.mem sender quiet) then
          List.iter
            (fun (dst, m) -> pending := (dst, self, m) :: !pending)
            (Dolev_strong.end_of_round inst ~round))
      instances
  done;
  List.map (fun (self, inst) -> (self, Dolev_strong.decision inst)) instances

let honest_init value sender_inst =
  match sender_inst with
  | Some inst -> List.map (fun (dst, m) -> (dst, 0, m)) (Dolev_strong.initiate inst value)
  | None -> []

let test_ds_all_correct () =
  let decisions = run_ds ~g:7 ~sender:0 ~init:(honest_init "v") () in
  List.iter
    (fun (_, d) -> Alcotest.(check bool) "decided v" true (d = Some (Some "v")))
    decisions

let test_ds_silent_sender () =
  let decisions = run_ds ~g:7 ~sender:0 ~init:(fun _ -> []) ~quiet:[ 0 ] () in
  List.iter
    (fun (_, d) -> Alcotest.(check bool) "decided bottom" true (d = Some None))
    decisions

let test_ds_single_node_group () =
  let decisions = run_ds ~g:1 ~sender:0 ~init:(honest_init "solo") () in
  Alcotest.(check bool) "self-decides" true (decisions = [ (0, Some (Some "solo")) ])

let test_ds_quiet_relays () =
  (* f Byzantine (quiet) relays; correct sender still gets through. *)
  let decisions = run_ds ~g:7 ~sender:0 ~init:(honest_init "v") ~quiet:[ 1; 2; 3 ] () in
  List.iter
    (fun (_, d) -> Alcotest.(check bool) "decided v" true (d = Some (Some "v")))
    decisions

let test_ds_equivocating_sender_agreement () =
  (* Byzantine sender sends different values to different members; all
     correct members must still decide the same thing. *)
  let init sender_inst =
    match sender_inst with
    | Some inst ->
      let assignments = [ (1, "A"); (2, "B"); (3, "A"); (4, "B"); (5, "A"); (6, "B") ] in
      List.map (fun (dst, m) -> (dst, 0, m)) (Dolev_strong.initiate_equivocating inst assignments)
    | None -> []
  in
  let decisions = run_ds ~g:7 ~sender:0 ~init () in
  let correct_decisions =
    List.filter_map (fun (self, d) -> if self = 0 then None else Some d) decisions
  in
  (match correct_decisions with
  | [] -> Alcotest.fail "no correct nodes"
  | d0 :: rest ->
    List.iter (fun d -> Alcotest.(check bool) "agreement" true (d = d0)) rest);
  (* With both values extracted, the decision must be bottom. *)
  Alcotest.(check bool) "bottom" true (List.for_all (fun d -> d = Some None) correct_decisions)

let test_ds_forged_chain_rejected () =
  let g = 5 in
  let f = Smr_intf.sync_f ~group_size:g in
  let kr = keyring_for g in
  let members = List.init g Fun.id in
  let victim =
    Dolev_strong.create ~keyring:kr ~self:1 ~members ~sender:0 ~f ~instance_id:"test"
  in
  (* A message claiming to come from the sender but without its real
     signature must not be extracted. *)
  let attacker =
    Dolev_strong.create ~keyring:kr ~self:2 ~members ~sender:2 ~f ~instance_id:"test"
  in
  let msgs = Dolev_strong.initiate attacker "evil" in
  List.iter (fun (dst, m) -> if dst = 1 then Dolev_strong.receive victim ~src:2 m) msgs;
  ignore (Dolev_strong.end_of_round victim ~round:1);
  Alcotest.(check (list string)) "nothing extracted" [] (Dolev_strong.extracted victim)

let test_ds_replay_across_instances_rejected () =
  let g = 5 in
  let f = Smr_intf.sync_f ~group_size:g in
  let kr = keyring_for g in
  let members = List.init g Fun.id in
  let sender_inst =
    Dolev_strong.create ~keyring:kr ~self:0 ~members ~sender:0 ~f ~instance_id:"inst-A"
  in
  let victim =
    Dolev_strong.create ~keyring:kr ~self:1 ~members ~sender:0 ~f ~instance_id:"inst-B"
  in
  let msgs = Dolev_strong.initiate sender_inst "v" in
  List.iter (fun (dst, m) -> if dst = 1 then Dolev_strong.receive victim ~src:0 m) msgs;
  ignore (Dolev_strong.end_of_round victim ~round:1);
  Alcotest.(check (list string)) "replay rejected" [] (Dolev_strong.extracted victim)

let prop_ds_validity =
  QCheck.Test.make ~name:"DS validity: correct sender's value decided despite quiet faults"
    ~count:40
    QCheck.(pair (int_range 4 10) (int_range 0 1000))
    (fun (g, seed) ->
      let f = Smr_intf.sync_f ~group_size:g in
      let rng = Atum_util.Rng.create seed in
      (* Pick up to f quiet nodes, never the sender (node 0). *)
      let quiet =
        Atum_util.Rng.sample_without_replacement rng f (List.init (g - 1) (fun i -> i + 1))
      in
      let decisions = run_ds ~g ~sender:0 ~init:(honest_init "v") ~quiet () in
      List.for_all (fun (_, d) -> d = Some (Some "v")) decisions)

let prop_ds_agreement_under_equivocation =
  QCheck.Test.make ~name:"DS agreement: equivocating sender cannot split correct nodes"
    ~count:40
    QCheck.(pair (int_range 4 9) (int_range 0 1000))
    (fun (g, seed) ->
      let rng = Atum_util.Rng.create seed in
      let init sender_inst =
        match sender_inst with
        | Some inst ->
          let assignments =
            List.filter_map
              (fun dst ->
                if Atum_util.Rng.bool rng then
                  Some (dst, if Atum_util.Rng.bool rng then "A" else "B")
                else None)
              (List.init (g - 1) (fun i -> i + 1))
          in
          List.map (fun (dst, m) -> (dst, 0, m))
            (Dolev_strong.initiate_equivocating inst assignments)
        | None -> []
      in
      let decisions = run_ds ~g ~sender:0 ~init () in
      let ds = List.filter_map (fun (self, d) -> if self = 0 then None else Some d) decisions in
      match ds with [] -> true | d0 :: rest -> List.for_all (fun d -> d = d0) rest)

(* ------------------------------------------------------------------ *)
(* Sync SMR: lock-step harness                                         *)
(* ------------------------------------------------------------------ *)

type sync_cluster = {
  nodes : (int * Sync_smr.t) list;
  queue : (int * int * Sync_smr.msg) list ref; (* dst, src, msg *)
  logs : (int, (int * string) list ref) Hashtbl.t;
}

let make_sync_cluster ?(quiet = []) ~g () =
  let kr = keyring_for g in
  let members = List.init g Fun.id in
  let correct = List.filter (fun i -> not (List.mem i quiet)) members in
  let queue = ref [] in
  let logs = Hashtbl.create g in
  let f = Smr_intf.sync_f ~group_size:g in
  let nodes =
    List.map
      (fun self ->
        let log = ref [] in
        Hashtbl.replace logs self log;
        let transport =
          {
            Smr_intf.self;
            members;
            f;
            send = (fun dst m -> queue := (dst, self, m) :: !queue);
            set_timer = (fun _ _ -> ());
          }
        in
        let smr =
          Sync_smr.create ~keyring:kr ~transport ~epoch_id:"e0"
            ~on_execute:(fun op -> log := (op.Smr_intf.origin, op.payload) :: !log)
        in
        (self, smr))
      correct
  in
  { nodes; queue; logs }

let run_boundaries cluster n =
  for _ = 1 to n do
    let batch = List.rev !(cluster.queue) in
    cluster.queue := [];
    List.iter
      (fun (dst, src, m) ->
        match List.assoc_opt dst cluster.nodes with
        | Some smr -> Sync_smr.receive smr ~src m
        | None -> ())
      batch;
    List.iter (fun (_, smr) -> Sync_smr.on_round_boundary smr) cluster.nodes
  done

let log_of cluster i = List.rev !(Hashtbl.find cluster.logs i)

let test_sync_smr_single_node () =
  let c = make_sync_cluster ~g:1 () in
  Sync_smr.propose (List.assoc 0 c.nodes) "op1";
  Sync_smr.propose (List.assoc 0 c.nodes) "op2";
  run_boundaries c 3;
  Alcotest.(check (list (pair int string))) "executed in order"
    [ (0, "op1"); (0, "op2") ] (log_of c 0)

let test_sync_smr_all_correct_agree () =
  let g = 5 in
  let c = make_sync_cluster ~g () in
  List.iter (fun (self, smr) -> Sync_smr.propose smr (Printf.sprintf "op-%d" self)) c.nodes;
  let f = Smr_intf.sync_f ~group_size:g in
  run_boundaries c ((f + 1) * 2 + 1);
  let reference = log_of c 0 in
  Alcotest.(check int) "all ops executed" g (List.length reference);
  List.iter
    (fun (self, _) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d log" self) reference (log_of c self))
    c.nodes;
  (* Within a slot, batches execute in sender-id order. *)
  Alcotest.(check (list (pair int string))) "sender order"
    (List.init g (fun i -> (i, Printf.sprintf "op-%d" i)))
    reference

let test_sync_smr_quiet_byzantine () =
  let g = 7 in
  let quiet = [ 5; 6 ] in
  let c = make_sync_cluster ~g ~quiet () in
  List.iter (fun (self, smr) -> Sync_smr.propose smr (Printf.sprintf "op-%d" self)) c.nodes;
  let f = Smr_intf.sync_f ~group_size:g in
  run_boundaries c ((f + 1) * 2 + 1);
  let reference = log_of c 0 in
  Alcotest.(check int) "correct ops executed" 5 (List.length reference);
  List.iter
    (fun (self, _) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d log" self) reference (log_of c self))
    c.nodes

let test_sync_smr_cross_slot_order () =
  let c = make_sync_cluster ~g:4 () in
  let f = Smr_intf.sync_f ~group_size:4 in
  Sync_smr.propose (List.assoc 1 c.nodes) "first";
  run_boundaries c (f + 2);
  Sync_smr.propose (List.assoc 2 c.nodes) "second";
  run_boundaries c ((f + 1) * 2);
  List.iter
    (fun (self, _) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d" self)
        [ (1, "first"); (2, "second") ] (log_of c self))
    c.nodes

let test_sync_smr_stop_freezes () =
  let c = make_sync_cluster ~g:3 () in
  let smr = List.assoc 0 c.nodes in
  Sync_smr.propose smr "op";
  Sync_smr.stop smr;
  run_boundaries c 6;
  Alcotest.(check (list (pair int string))) "nothing executed after stop" [] (log_of c 0)

let test_sync_smr_batching () =
  (* Several payloads proposed before a slot start travel as one batch
     and execute in proposal order. *)
  let c = make_sync_cluster ~g:4 () in
  let smr = List.assoc 3 c.nodes in
  List.iter (Sync_smr.propose smr) [ "a"; "b"; "c" ];
  run_boundaries c 6;
  Alcotest.(check (list (pair int string))) "batch order"
    [ (3, "a"); (3, "b"); (3, "c") ] (log_of c 3)

let prop_sync_smr_agreement =
  QCheck.Test.make ~name:"sync SMR: identical logs at all correct nodes" ~count:25
    QCheck.(triple (int_range 2 8) (int_range 0 500) (int_range 1 4))
    (fun (g, seed, ops_per_node) ->
      let rng = Atum_util.Rng.create seed in
      let f = Smr_intf.sync_f ~group_size:g in
      let quiet =
        Atum_util.Rng.sample_without_replacement rng (Atum_util.Rng.int rng (f + 1))
          (List.init g Fun.id)
      in
      let c = make_sync_cluster ~g ~quiet () in
      List.iter
        (fun (self, smr) ->
          for k = 1 to ops_per_node do
            Sync_smr.propose smr (Printf.sprintf "%d.%d" self k)
          done)
        c.nodes;
      run_boundaries c ((f + 1) * 3 + 1);
      match c.nodes with
      | [] -> true
      | (i0, _) :: rest ->
        let reference = log_of c i0 in
        List.length reference = List.length c.nodes * ops_per_node
        && List.for_all (fun (i, _) -> log_of c i = reference) rest)

let prop_batch_roundtrip =
  QCheck.Test.make ~name:"batch encoding roundtrips arbitrary payloads" ~count:300
    QCheck.(list string)
    (fun payloads -> Sync_smr.decode_batch (Sync_smr.encode_batch payloads) = payloads)

let prop_batch_decode_total =
  QCheck.Test.make ~name:"batch decoding never raises on garbage" ~count:500 QCheck.string
    (fun s ->
      let decoded = Sync_smr.decode_batch s in
      (* Every decoded payload must re-encode into a prefix-consistent
         batch; mostly we care that no exception escaped. *)
      List.length decoded >= 0)

(* ------------------------------------------------------------------ *)
(* PBFT over the simulated network                                     *)
(* ------------------------------------------------------------------ *)

type pbft_cluster = {
  engine : Atum_sim.Engine.t;
  instances : (int * Pbft.t) list;
  plogs : (int, (int * string) list ref) Hashtbl.t;
}

let make_pbft_cluster ?(quiet = []) ?(timeout = 2.0) ~n () =
  let engine = Atum_sim.Engine.create () in
  let net : Pbft.msg Atum_sim.Network.t =
    Atum_sim.Network.create engine (Atum_sim.Network.datacenter_config ~seed:7)
  in
  let members = List.init n Fun.id in
  let roster = Pbft.roster members in
  let correct = List.filter (fun i -> not (List.mem i quiet)) members in
  let f = Smr_intf.async_f ~group_size:n in
  let plogs = Hashtbl.create n in
  let instances =
    List.map
      (fun self ->
        let log = ref [] in
        Hashtbl.replace plogs self log;
        let transport =
          {
            Smr_intf.self;
            members;
            f;
            send = (fun dst m -> Atum_sim.Network.send net ~src:self ~dst m);
            set_timer = (fun delay fn -> Atum_sim.Engine.schedule engine ~delay fn);
          }
        in
        let inst =
          Pbft.create ~roster ~transport ~timeout ~on_execute:(fun op ->
              log := (op.Smr_intf.origin, op.payload) :: !log)
        in
        Atum_sim.Network.register net self (fun ~src m -> Pbft.receive inst ~src m);
        (self, inst))
      correct
  in
  { engine; instances; plogs }

let pbft_log c i = List.rev !(Hashtbl.find c.plogs i)

let test_pbft_basic () =
  let c = make_pbft_cluster ~n:4 () in
  Pbft.propose (List.assoc 1 c.instances) "hello";
  Atum_sim.Engine.run ~until:1.0 c.engine;
  List.iter
    (fun (self, _) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d" self) [ (1, "hello") ] (pbft_log c self))
    c.instances

let test_pbft_many_proposers_same_order () =
  let c = make_pbft_cluster ~n:7 () in
  List.iter
    (fun (self, inst) ->
      Pbft.propose inst (Printf.sprintf "a-%d" self);
      Pbft.propose inst (Printf.sprintf "b-%d" self))
    c.instances;
  Atum_sim.Engine.run ~until:5.0 c.engine;
  let reference = pbft_log c 0 in
  Alcotest.(check int) "all executed" 14 (List.length reference);
  List.iter
    (fun (self, _) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d" self) reference (pbft_log c self))
    c.instances

let test_pbft_quiet_backups_still_live () =
  let c = make_pbft_cluster ~n:7 ~quiet:[ 5; 6 ] () in
  Pbft.propose (List.assoc 0 c.instances) "op";
  Atum_sim.Engine.run ~until:2.0 c.engine;
  List.iter
    (fun (self, _) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d" self) [ (0, "op") ] (pbft_log c self))
    c.instances

let test_pbft_view_change_on_quiet_primary () =
  (* View 0 primary is node 0; keep it quiet.  The request must still
     execute after a view change, on all correct nodes. *)
  let c = make_pbft_cluster ~n:4 ~quiet:[ 0 ] ~timeout:0.5 () in
  Pbft.propose (List.assoc 1 c.instances) "survive";
  Atum_sim.Engine.run ~until:30.0 c.engine;
  List.iter
    (fun (self, inst) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d" self) [ (1, "survive") ] (pbft_log c self);
      Alcotest.(check bool) "moved past view 0" true (Pbft.view inst >= 1))
    c.instances

let test_pbft_executes_exactly_once () =
  let c = make_pbft_cluster ~n:4 ~timeout:0.2 () in
  (* Short timeout: requests are retransmitted while the protocol is
     still running; dedup must prevent double execution. *)
  Pbft.propose (List.assoc 2 c.instances) "once";
  Atum_sim.Engine.run ~until:10.0 c.engine;
  List.iter
    (fun (self, _) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d" self) [ (2, "once") ] (pbft_log c self))
    c.instances

let test_pbft_primary_rotation_is_member_order () =
  let c = make_pbft_cluster ~n:4 () in
  let inst = List.assoc 0 c.instances in
  Alcotest.(check int) "view 0 primary" 0 (Pbft.primary inst)

let test_pbft_two_view_changes () =
  (* Primaries of views 0 and 1 are both quiet: the protocol must walk
     two view changes and still execute everywhere. *)
  let c = make_pbft_cluster ~n:7 ~quiet:[ 0; 1 ] ~timeout:0.5 () in
  Pbft.propose (List.assoc 2 c.instances) "persist";
  Atum_sim.Engine.run ~until:60.0 c.engine;
  List.iter
    (fun (self, inst) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d" self) [ (2, "persist") ] (pbft_log c self);
      Alcotest.(check bool) "reached view >= 2" true (Pbft.view inst >= 2))
    c.instances

let test_pbft_post_viewchange_proposals () =
  (* After a view change, fresh proposals must keep flowing. *)
  let c = make_pbft_cluster ~n:4 ~quiet:[ 0 ] ~timeout:0.5 () in
  Pbft.propose (List.assoc 1 c.instances) "first";
  Atum_sim.Engine.run ~until:30.0 c.engine;
  Pbft.propose (List.assoc 2 c.instances) "second";
  Atum_sim.Engine.run ~until:60.0 c.engine;
  let reference = pbft_log c 1 in
  Alcotest.(check int) "both executed" 2 (List.length reference);
  List.iter
    (fun (self, _) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d" self) reference (pbft_log c self))
    c.instances

let test_pbft_decisions_stable_across_runs () =
  (* Regression for the determinism sweep: replacing the polymorphic
     member sorts and certificate folds in PBFT's decision path with
     keyed sorts must keep seed-run decisions reproducible.  Two
     identical in-process runs — through a view change, which exercises
     the certificate-collection path — must decide byte-identical
     sequences on every replica. *)
  let run () =
    let c = make_pbft_cluster ~n:7 ~quiet:[ 0 ] ~timeout:0.5 () in
    List.iter
      (fun (self, inst) -> Pbft.propose inst (Printf.sprintf "op-%d" self))
      c.instances;
    Atum_sim.Engine.run ~until:60.0 c.engine;
    List.map (fun (self, _) -> (self, pbft_log c self)) c.instances
  in
  let rec is_prefix p l =
    match (p, l) with
    | [], _ -> true
    | x :: p', y :: l' -> x = y && is_prefix p' l'
    | _ :: _, [] -> false
  in
  let a = run () in
  (match a with
  | (_, reference) :: rest ->
    Alcotest.(check int) "all ops executed at the first replica" 6 (List.length reference);
    (* A replica may still be committing the tail at the cutoff, so
       safety here is prefix agreement, not log equality. *)
    List.iter
      (fun (self, l) ->
        Alcotest.(check bool)
          (Printf.sprintf "replica %d decided a prefix of the reference" self)
          true (is_prefix l reference);
        Alcotest.(check bool)
          (Printf.sprintf "replica %d is nearly caught up" self)
          true
          (List.length l >= List.length reference - 1))
      rest
  | [] -> Alcotest.fail "no instances");
  let b = run () in
  Alcotest.(check bool) "same-seed runs decide identically" true (a = b)

let prop_pbft_agreement =
  QCheck.Test.make ~name:"PBFT: identical logs with random quiet faults" ~count:15
    QCheck.(pair (int_range 4 10) (int_range 0 500))
    (fun (n, seed) ->
      let f = Smr_intf.async_f ~group_size:n in
      let rng = Atum_util.Rng.create seed in
      let quiet =
        Atum_util.Rng.sample_without_replacement rng
          (Atum_util.Rng.int rng (f + 1))
          (List.init (n - 1) (fun i -> i + 1))
      in
      let c = make_pbft_cluster ~n ~quiet ~timeout:1.0 () in
      List.iter (fun (self, inst) -> Pbft.propose inst (Printf.sprintf "op-%d" self)) c.instances;
      Atum_sim.Engine.run ~until:20.0 c.engine;
      match c.instances with
      | [] -> true
      | (i0, _) :: rest ->
        let reference = pbft_log c i0 in
        List.length reference = List.length c.instances
        && List.for_all (fun (i, _) -> pbft_log c i = reference) rest)

(* PBFT under an adversarial scheduler, without the network model:
   every send lands in a pool and each step delivers a random pooled
   message, keeping a copy one time in eight (duplication).  With
   [primary_last], messages from the view-0 primary wait until nothing
   else is pooled, so backups' prepares reach each other before the
   pre-prepare does.  Timers fire, earliest first, only when the pool
   is empty.  Returns each correct replica's executed payloads in
   order once the run drains or [steps] deliveries and timer firings
   have happened. *)
type 'm pool = { mutable items : (int * int * 'm) array; mutable len : int }

let pool_push p x =
  if p.len = Array.length p.items then p.items <- Array.append p.items (Array.make (max 16 p.len) x);
  p.items.(p.len) <- x;
  p.len <- p.len + 1

let pool_take rng p i =
  let x = p.items.(i) in
  if Atum_util.Rng.int rng 8 > 0 then begin
    p.items.(i) <- p.items.(p.len - 1);
    p.len <- p.len - 1
  end;
  x

let run_scheduled ~n ~quiet_primary ~primary_last ~ops ~steps ~seed =
  let rng = Atum_util.Rng.create seed in
  let members = List.init n Fun.id in
  let roster = Pbft.roster members in
  let f = Smr_intf.async_f ~group_size:n in
  (* Messages from node 0, the view-0 primary, and from everyone else. *)
  let from_primary = { items = [||]; len = 0 } and others = { items = [||]; len = 0 } in
  let now = ref 0.0 and timer_seq = ref 0 and timers = ref [] in
  let logs = Array.make n [] in
  let replicas = Array.make n None in
  List.iter
    (fun self ->
      if not (quiet_primary && self = 0) then begin
        let transport =
          {
            Smr_intf.self;
            members;
            f;
            send = (fun dst m -> pool_push (if self = 0 then from_primary else others) (self, dst, m));
            set_timer =
              (fun delay fn ->
                incr timer_seq;
                timers := (!now +. delay, !timer_seq, fn) :: !timers);
          }
        in
        replicas.(self) <-
          Some
            (Pbft.create ~roster ~transport ~timeout:1.0 ~on_execute:(fun op ->
                 logs.(self) <- op.Smr_intf.payload :: logs.(self)))
      end)
    members;
  Array.iteri
    (fun self r ->
      Option.iter
        (fun r ->
          for k = 1 to ops do
            Pbft.propose r (Printf.sprintf "op-%d-%d" self k)
          done)
        r)
    replicas;
  let pick () =
    if primary_last && others.len > 0 then pool_take rng others (Atum_util.Rng.int rng others.len)
    else
      let i = Atum_util.Rng.int rng (others.len + from_primary.len) in
      if i < others.len then pool_take rng others i
      else pool_take rng from_primary (i - others.len)
  in
  let rec loop steps =
    if steps > 0 then
      if others.len + from_primary.len > 0 then begin
        let src, dst, m = pick () in
        Option.iter (fun r -> Pbft.receive r ~src m) replicas.(dst);
        loop (steps - 1)
      end
      else
        match
          List.sort
            (fun (a, i, _) (b, j, _) -> match Float.compare a b with 0 -> Int.compare i j | c -> c)
            !timers
        with
        | [] -> ()
        | (at, _, fn) :: rest ->
          timers := rest;
          now := at;
          fn ();
          loop (steps - 1)
  in
  loop steps;
  List.filter_map (fun self -> Option.map (fun _ -> List.rev logs.(self)) replicas.(self)) members

(* Under any delivery order no replica executes a request twice.  With
   a live primary every replica executes every request, all in one
   order, even when prepares overtake their pre-prepare.  After the
   view change that a quiet primary forces, this PBFT guarantees
   neither, so the property does not claim them there: a replica that
   drops a pre-prepare sent in a view it has not entered yet can stall
   for good, and replicas can execute different requests at one
   sequence number (n = 6, seed 34, quiet primary; ROADMAP item 13). *)
let prop_pbft_scheduled_delivery =
  QCheck.Test.make
    ~name:"PBFT: shuffled and duplicated delivery executes each request once, in one order"
    ~count:60
    QCheck.(quad (int_range 4 7) (int_range 0 10_000) bool bool)
    (fun (n, seed, quiet_primary, primary_last) ->
      let ops = 2 in
      let logs = run_scheduled ~n ~quiet_primary ~primary_last ~ops ~steps:20_000 ~seed in
      let once l = List.length (List.sort_uniq String.compare l) = List.length l in
      List.for_all once logs
      && (quiet_primary
         ||
         match logs with
         | [] -> false
         | reference :: _ ->
           List.length reference = n * ops && List.for_all (fun l -> l = reference) logs))

let () =
  Alcotest.run "smr"
    [
      ( "dolev-strong",
        [
          Alcotest.test_case "all correct" `Quick test_ds_all_correct;
          Alcotest.test_case "silent sender" `Quick test_ds_silent_sender;
          Alcotest.test_case "single node" `Quick test_ds_single_node_group;
          Alcotest.test_case "quiet relays" `Quick test_ds_quiet_relays;
          Alcotest.test_case "equivocation" `Quick test_ds_equivocating_sender_agreement;
          Alcotest.test_case "forged chain" `Quick test_ds_forged_chain_rejected;
          Alcotest.test_case "replay rejected" `Quick test_ds_replay_across_instances_rejected;
          QCheck_alcotest.to_alcotest prop_ds_validity;
          QCheck_alcotest.to_alcotest prop_ds_agreement_under_equivocation;
        ] );
      ( "sync-smr",
        [
          Alcotest.test_case "single node" `Quick test_sync_smr_single_node;
          Alcotest.test_case "all correct" `Quick test_sync_smr_all_correct_agree;
          Alcotest.test_case "quiet byzantine" `Quick test_sync_smr_quiet_byzantine;
          Alcotest.test_case "cross-slot order" `Quick test_sync_smr_cross_slot_order;
          Alcotest.test_case "stop freezes" `Quick test_sync_smr_stop_freezes;
          Alcotest.test_case "batching" `Quick test_sync_smr_batching;
          QCheck_alcotest.to_alcotest prop_sync_smr_agreement;
          QCheck_alcotest.to_alcotest prop_batch_roundtrip;
          QCheck_alcotest.to_alcotest prop_batch_decode_total;
        ] );
      ( "pbft",
        [
          Alcotest.test_case "basic" `Quick test_pbft_basic;
          Alcotest.test_case "many proposers" `Quick test_pbft_many_proposers_same_order;
          Alcotest.test_case "quiet backups" `Quick test_pbft_quiet_backups_still_live;
          Alcotest.test_case "view change" `Quick test_pbft_view_change_on_quiet_primary;
          Alcotest.test_case "exactly once" `Quick test_pbft_executes_exactly_once;
          Alcotest.test_case "primary order" `Quick test_pbft_primary_rotation_is_member_order;
          Alcotest.test_case "two view changes" `Quick test_pbft_two_view_changes;
          Alcotest.test_case "post-viewchange proposals" `Quick test_pbft_post_viewchange_proposals;
          Alcotest.test_case "decisions stable across runs" `Quick
            test_pbft_decisions_stable_across_runs;
          QCheck_alcotest.to_alcotest prop_pbft_agreement;
          QCheck_alcotest.to_alcotest prop_pbft_scheduled_delivery;
        ] );
    ]
