module Backend = Atum_store.Backend

type stat = { mutable calls : int; mutable bytes : int; mutable secs : float }
type t = { load : stat; save : stat; append : stat; remove : stat }

let stat () = { calls = 0; bytes = 0; secs = 0.0 }

let timed clock st bytes f =
  let t0 = clock () in
  let r = f () in
  st.secs <- st.secs +. (clock () -. t0);
  st.calls <- st.calls + 1;
  st.bytes <- st.bytes + bytes r;
  r

let wrap ?(clock = Unix.gettimeofday) (b : Backend.t) =
  let t = { load = stat (); save = stat (); append = stat (); remove = stat () } in
  let none _ = 0 in
  let backend =
    {
      Backend.load =
        (fun ~node ~name ->
          timed clock t.load
            (function Some s -> String.length s | None -> 0)
            (fun () -> b.Backend.load ~node ~name));
      save =
        (fun ~node ~name data ->
          timed clock t.save (fun () -> String.length data) (fun () -> b.Backend.save ~node ~name data));
      append =
        (fun ~node ~name data ->
          timed clock t.append
            (fun () -> String.length data)
            (fun () -> b.Backend.append ~node ~name data));
      remove = (fun ~node ~name -> timed clock t.remove none (fun () -> b.Backend.remove ~node ~name));
      sync_count = b.Backend.sync_count;
    }
  in
  (t, backend)

let copy t =
  let c s = { calls = s.calls; bytes = s.bytes; secs = s.secs } in
  { load = c t.load; save = c t.save; append = c t.append; remove = c t.remove }

let reset t =
  List.iter
    (fun s ->
      s.calls <- 0;
      s.bytes <- 0;
      s.secs <- 0.0)
    [ t.load; t.save; t.append; t.remove ]
