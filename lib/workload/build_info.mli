(** Provenance stamped into every JSON artifact: without it, a
    directory of [ATUM_*.json] / [BENCH_*.json] files from different
    checkouts or command lines is unattributable.

    All fields are stable within one checkout and command, so
    embedding them keeps same-seed artifacts byte-identical. *)

val version : string
(** The tool version reported by [atum-cli --version]. *)

val git_describe : unit -> string
(** [git describe --always --dirty] of the checkout holding the
    running binary ({!Sys.executable_name}), at first use (cached);
    ["unknown"] when git is unavailable or the binary lies outside a
    checkout.  The current directory plays no part. *)

val current : seed:int -> Atum_sim.Artifact.build_info
(** This build's provenance for the running command line and [seed]. *)
