(** Bulk-transfer timing model for file and stream data.

    Control messages go through {!Network}; file chunks and stream
    data are dominated by bandwidth, not propagation latency, so this
    module computes transfer durations from host capacities instead:

    - a single TCP stream pays a [setup] overhead (handshake) plus a
      slow-start ramp that amortizes as the transfer grows — this is
      what makes latency-per-MB fall with file size in Fig 9;
    - a receiver pulling from [k] sources in parallel gets
      [min(download, k * upload)] aggregate bandwidth;
    - digest computation runs at [hash_mbps] per core and
      parallelizes across chunks up to [cores] (§4.2.2). *)

type host = {
  upload_mbps : float;   (** MB/s out *)
  download_mbps : float; (** MB/s in *)
  cores : int;
  hash_mbps : float;     (** SHA-256 MB/s per core *)
}

val ec2_micro : host
(** The paper's instance type: modest, download > upload. *)

val single_stream_time : src:host -> dst:host -> mb:float -> float
(** Wall time to move [mb] megabytes over one stream. *)

val parallel_pull_time : sources:host list -> dst:host -> mb:float -> chunks:int -> float
(** Wall time to pull a file of [mb] MB cut into [chunks] chunks from
    all [sources] at once.  Chunks round-robin over sources; each
    source sustains its upload rate, the receiver caps the total. *)

val hash_time : host -> mb:float -> parallel_chunks:int -> float
(** Digest-computation time with multithreading across chunks. *)
