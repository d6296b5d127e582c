(** Provenance stamped into every JSON artifact: without it, a
    directory of [ATUM_*.json] / [BENCH_*.json] files from different
    checkouts or command lines is unattributable.

    All fields are stable within one checkout and command, so
    embedding them keeps same-seed artifacts byte-identical. *)

val version : string
(** The tool version reported by [atum-cli --version]. *)

val git_describe : unit -> string
(** [git describe --always --dirty] at first use (cached); ["unknown"]
    when git or the repository is unavailable. *)

val current : seed:int -> Atum_sim.Artifact.build_info
(** This build's provenance for the running command line and [seed]. *)
