(* In-simulation virtual filesystem.

   The durable bytes of every node live in one hash table keyed by
   (node, name); timestamps come from the [now] closure the caller
   provides (simulation time), so a seeded run touches no wall clock
   and two same-seed runs hold byte-identical store contents.  A file
   is a growable byte buffer plus its length: an append writes into
   the slack (doubling when full) instead of copying the whole file,
   and the fault-injection helpers ([corrupt_byte], [truncate]) damage
   it in place so chaos scenarios can break a node's log
   deterministically before a restart.  A removed file keeps its
   buffer for the next file of that name: a WAL that is truncated
   every few dozen records then stops reallocating after its first
   round. *)

type file = {
  mutable data : Bytes.t;
  mutable len : int;
  mutable mtime : float;
  mutable exists : bool; (* false once removed; [data] awaits reuse *)
}

type t = {
  files : (int * string, file) Hashtbl.t;
  now : unit -> float;
  mutable syncs : int;
  mutable count : int; (* files that exist *)
}

let create ?(now = fun () -> 0.0) () = { files = Hashtbl.create 64; now; syncs = 0; count = 0 }

let find t ~node ~name =
  match Hashtbl.find_opt t.files (node, name) with Some f when f.exists -> Some f | _ -> None

let read t ~node ~name =
  match find t ~node ~name with Some f -> Some (Bytes.sub_string f.data 0 f.len) | None -> None

let mtime t ~node ~name = Option.map (fun f -> f.mtime) (find t ~node ~name)

let total_bytes t =
  Hashtbl.fold (fun _ f acc -> acc + f.len) t.files 0

let file_count t = t.count

let write_tail f data =
  let n = String.length data in
  let need = f.len + n in
  if need > Bytes.length f.data then begin
    let grown = Bytes.create (max need (2 * Bytes.length f.data)) in
    Bytes.blit f.data 0 grown 0 f.len;
    f.data <- grown
  end;
  Bytes.blit_string data 0 f.data f.len n;
  f.len <- need

(* Replace ([save]) or extend ([append]) a file, creating it if absent. *)
let write t ~node ~name ~keep data =
  t.syncs <- t.syncs + 1;
  match Hashtbl.find_opt t.files (node, name) with
  | Some f ->
    if not f.exists then begin
      f.exists <- true;
      t.count <- t.count + 1
    end;
    if not keep then f.len <- 0;
    write_tail f data;
    f.mtime <- t.now ()
  | None ->
    t.count <- t.count + 1;
    Hashtbl.replace t.files (node, name)
      { data = Bytes.of_string data; len = String.length data; mtime = t.now (); exists = true }

let remove t ~node ~name =
  match find t ~node ~name with
  | Some f ->
    f.exists <- false;
    f.len <- 0;
    t.count <- t.count - 1
  | None -> ()

let backend t =
  {
    Backend.load = (fun ~node ~name -> read t ~node ~name);
    save = (fun ~node ~name data -> write t ~node ~name ~keep:false data);
    append = (fun ~node ~name data -> write t ~node ~name ~keep:true data);
    remove = (fun ~node ~name -> remove t ~node ~name);
    sync_count = (fun () -> t.syncs);
  }

(* --- deterministic damage, for chaos scenarios ---------------------- *)

let corrupt_byte t ~node ~name ~at =
  match find t ~node ~name with
  | Some f when at >= 0 && at < f.len ->
    Bytes.set f.data at (Char.chr (Char.code (Bytes.get f.data at) lxor 0xFF));
    true
  | _ -> false

let truncate t ~node ~name ~keep =
  match find t ~node ~name with
  | Some f when keep >= 0 && keep < f.len ->
    f.len <- keep;
    true
  | _ -> false
