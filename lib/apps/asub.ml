module Atum = Atum_core.Atum

type event = { topic : string; subscriber : string; publisher : string; payload : string }

type topic_state = {
  atum : Atum.t;
  clients : (string, Atum.node_id) Hashtbl.t; (* client name -> node *)
  names : (Atum.node_id, string) Hashtbl.t; (* node -> client name *)
}

type t = {
  params : Atum_core.Params.t;
  topic_table : (string, topic_state) Hashtbl.t;
  mutable handler : event -> unit;
  mutable delivered : int;
  rng : Atum_util.Rng.t;
}

let create ?(params = Atum_core.Params.default) () =
  {
    params;
    topic_table = Hashtbl.create 8;
    handler = (fun _ -> ());
    delivered = 0;
    rng = Atum_util.Rng.create (params.Atum_core.Params.seed + 17);
  }

let root_name = "@root"

let topic_state t name =
  match Hashtbl.find_opt t.topic_table name with
  | Some s -> s
  | None -> invalid_arg ("Asub: unknown topic " ^ name)

(* Publishes carry their author so subscribers see who published. *)
let encode ~publisher payload = publisher ^ "\x00" ^ payload

let decode body =
  match String.index_opt body '\x00' with
  | None -> ("?", body)
  | Some i ->
    (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))

let create_topic t name =
  if Hashtbl.mem t.topic_table name then invalid_arg ("Asub: duplicate topic " ^ name);
  let params = { t.params with Atum_core.Params.seed = t.params.seed + Hashtbl.hash name } in
  let atum = Atum.create ~params () in
  let root = Atum.bootstrap atum in
  let st =
    { atum; clients = Hashtbl.create 32; names = Hashtbl.create 32 }
  in
  Hashtbl.replace st.clients root_name root;
  Hashtbl.replace st.names root root_name;
  Atum.on_deliver atum (fun nid ~bid:_ ~origin:_ body ->
      match Hashtbl.find_opt st.names nid with
      | None -> ()
      | Some subscriber ->
        let publisher, payload = decode body in
        t.delivered <- t.delivered + 1;
        t.handler { topic = name; subscriber; publisher; payload });
  Hashtbl.replace t.topic_table name st

let topics t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.topic_table [])

let subscribe t ~topic client =
  let st = topic_state t topic in
  if Hashtbl.mem st.clients client then invalid_arg ("Asub: already subscribed " ^ client);
  (* Sorted by client name: [existing] feeds a seeded Rng.pick below. *)
  let existing =
    List.map snd (Atum_util.Hashtbl_ext.sorted_bindings ~cmp:String.compare st.clients)
  in
  let live = List.filter (fun nid -> Atum.is_member st.atum nid) existing in
  let contact =
    match live with [] -> invalid_arg "Asub: topic has no live subscriber" | l -> Atum_util.Rng.pick t.rng l
  in
  let nid = Atum.join st.atum ~contact () in
  Hashtbl.replace st.clients client nid;
  Hashtbl.replace st.names nid client

let unsubscribe t ~topic client =
  let st = topic_state t topic in
  match Hashtbl.find_opt st.clients client with
  | None -> invalid_arg ("Asub: not subscribed " ^ client)
  | Some nid ->
    Atum.leave st.atum nid;
    Hashtbl.remove st.clients client;
    Hashtbl.remove st.names nid

let is_subscribed t ~topic client =
  let st = topic_state t topic in
  match Hashtbl.find_opt st.clients client with
  | None -> false
  | Some nid -> Atum.is_member st.atum nid

let subscribers t ~topic =
  let st = topic_state t topic in
  List.sort String.compare
    (Hashtbl.fold
       (fun name nid acc -> if Atum.is_member st.atum nid then name :: acc else acc)
       st.clients [])

let publish t ~topic ~as_ payload =
  let st = topic_state t topic in
  match Hashtbl.find_opt st.clients as_ with
  | None -> invalid_arg ("Asub: publisher not subscribed: " ^ as_)
  | Some nid -> ignore (Atum.broadcast st.atum ~from:nid (encode ~publisher:as_ payload))

let on_event t f = t.handler <- f

let run_for t dt = Hashtbl.iter (fun _ st -> Atum.run_for st.atum dt) t.topic_table

let events_delivered t = t.delivered
