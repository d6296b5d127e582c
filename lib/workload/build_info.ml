let version = "1.1.0"

(* One subprocess per process, at first use.  Deterministic for the
   artifact contract: within one checkout the output never changes
   between two same-seed runs.  git runs in the directory of the
   running binary, not the current one, so an artifact names the
   checkout the binary was built in wherever it was written from. *)
let git_describe =
  let cached = ref None in
  fun () ->
    match !cached with
    | Some v -> v
    | None ->
      let dir = Filename.dirname Sys.executable_name in
      let v =
        try
          let ic =
            Unix.open_process_in
              ("git -C " ^ Filename.quote dir ^ " describe --always --dirty 2>/dev/null")
          in
          let line = try input_line ic with End_of_file -> "" in
          let status = Unix.close_process_in ic in
          (match (status, line) with
          | Unix.WEXITED 0, l when String.length l > 0 -> l
          | _ -> "unknown")
        with _ -> "unknown"
      in
      cached := Some v;
      v

(* The command line, with the binary's basename so that artifacts do
   not depend on where it was invoked from. *)
let current ~seed : Atum_sim.Artifact.build_info =
  let argv = Array.to_list Sys.argv in
  let argv = match argv with [] -> [] | argv0 :: rest -> Filename.basename argv0 :: rest in
  { version; git = git_describe (); seed; cmdline = String.concat " " argv }
