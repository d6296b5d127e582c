type latency_model =
  | Fixed of float
  | Uniform of float * float
  | Lognormal of { mu : float; sigma : float; floor : float }

type config = {
  latency : latency_model;
  drop_probability : float;
  seed : int;
  node_capacity : float option;
}

let datacenter_config ~seed =
  { latency = Uniform (0.0005, 0.002); drop_probability = 0.0; seed; node_capacity = None }

let wan_config ~seed =
  (* Median ~ exp(mu) = 80 ms; sigma gives occasional multi-second
     stragglers, matching Fig 8's Async tail. *)
  {
    latency = Lognormal { mu = log 0.08; sigma = 0.6; floor = 0.02 };
    drop_probability = 0.001;
    seed;
    node_capacity = None;
  }

(* Why a message was dropped.  Each reason is counted through a
   handle on its metric ([reason_kind], also its trace kind), so
   recording a drop hashes no name. *)
type reason = Crash | Partition | Loss | No_handler

let reason_kind = function
  | Crash -> "net.drop.crash"
  | Partition -> "net.drop.partition"
  | Loss -> "net.drop.loss"
  | No_handler -> "net.drop.no_handler"

let reason_index = function Crash -> 0 | Partition -> 1 | Loss -> 2 | No_handler -> 3

(* Per-node state lives in flat arrays indexed by the dense node id
   (see Atum_util.Arena): handler dispatch, partition tags, the
   crashed set and the per-node service-queue tail are all O(1) array
   reads with no hashing.  Arrays grow on registration; ids beyond
   the high-water mark behave like unregistered nodes. *)
type 'msg t = {
  engine : Engine.t;
  config : config;
  rng : Atum_util.Rng.t;
  mutable handlers : (src:int -> 'msg -> unit) option array;
  mutable partitions : int array; (* 0 = default partition *)
  mutable crashed : bool array;
  mutable ready : float array; (* per-node processing queue tail; 0 = idle *)
  mutable cap : int; (* length of the arrays above *)
  mutable crashed_count : int;
  mutable tagged_count : int; (* nodes with a nonzero partition tag *)
  mutable fault_epoch : int; (* bumped by every crash, recover and partition change *)
  metrics : Metrics.t;
  post_heal_count : Metrics.handle; (* "net.deliver.post_heal" *)
  drop_counts : Metrics.handle array; (* by [reason_index] *)
  mutable settled : int -> 'msg -> bool; (* see [set_settled] *)
  trace : Trace.t option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  (* Fault-injection overrides (see Fault).  All identity by default,
     so an undisturbed run is bit-identical to one without the fields. *)
  mutable loss_boost : float; (* added to config.drop_probability *)
  mutable loss_cut : int; (* the loss probability as [Rng.bernoulli_below]'s threshold *)
  mutable latency_factor : float; (* multiplies each sampled transit latency *)
  mutable capacity_factor : float; (* multiplies node_capacity (degrade < 1.0) *)
  mutable post_heal : bool; (* a heal/recover happened; label deliveries *)
}

let cut_of ~drop_probability ~boost =
  Atum_util.Rng.bernoulli_threshold (Float.min 1.0 (drop_probability +. boost))

let create ?metrics ?trace engine config =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    engine;
    config;
    rng = Atum_util.Rng.create config.seed;
    handlers = Array.make 256 None;
    partitions = Array.make 256 0;
    crashed = Array.make 256 false;
    ready = Array.make 256 0.0;
    cap = 256;
    crashed_count = 0;
    tagged_count = 0;
    fault_epoch = 0;
    metrics;
    post_heal_count = Metrics.handle metrics "net.deliver.post_heal";
    drop_counts =
      Array.map (fun r -> Metrics.handle metrics (reason_kind r)) [| Crash; Partition; Loss; No_handler |];
    settled = (fun _ _ -> false);
    trace;
    sent = 0;
    delivered = 0;
    dropped = 0;
    bytes = 0;
    loss_boost = 0.0;
    loss_cut = cut_of ~drop_probability:config.drop_probability ~boost:0.0;
    latency_factor = 1.0;
    capacity_factor = 1.0;
    post_heal = false;
  }

let engine t = t.engine
let metrics t = t.metrics
let set_settled t f = t.settled <- f
let trace t = t.trace

let ensure t node =
  if node >= t.cap then begin
    let cap = max (node + 1) (2 * t.cap) in
    let handlers = Array.make cap None in
    Array.blit t.handlers 0 handlers 0 t.cap;
    let partitions = Array.make cap 0 in
    Array.blit t.partitions 0 partitions 0 t.cap;
    let crashed = Array.make cap false in
    Array.blit t.crashed 0 crashed 0 t.cap;
    let ready = Array.make cap 0.0 in
    Array.blit t.ready 0 ready 0 t.cap;
    t.handlers <- handlers;
    t.partitions <- partitions;
    t.crashed <- crashed;
    t.ready <- ready;
    t.cap <- cap
  end

let register t node handler =
  ensure t node;
  t.handlers.(node) <- Some handler

let unregister t node = if node < t.cap then t.handlers.(node) <- None

let handler_of t node = if node < t.cap then t.handlers.(node) else None
let has_handler t node = node < t.cap && Option.is_some t.handlers.(node)

let sample_latency t =
  match t.config.latency with
  | Fixed d -> d
  | Uniform (lo, hi) -> lo +. Atum_util.Rng.float t.rng (hi -. lo)
  | Lognormal { mu; sigma; floor } ->
    Float.max floor (Atum_util.Rng.lognormal t.rng ~mu ~sigma)

let partition_of t node = if node < t.cap then t.partitions.(node) else 0

let set_partition t node tag =
  ensure t node;
  let old = t.partitions.(node) in
  if old = 0 && tag <> 0 then t.tagged_count <- t.tagged_count + 1
  else if old <> 0 && tag = 0 then t.tagged_count <- t.tagged_count - 1;
  t.partitions.(node) <- tag;
  t.fault_epoch <- t.fault_epoch + 1

let heal t =
  Array.fill t.partitions 0 t.cap 0;
  t.tagged_count <- 0;
  t.fault_epoch <- t.fault_epoch + 1;
  t.post_heal <- true

let crash t node =
  ensure t node;
  if not t.crashed.(node) then begin
    t.crashed.(node) <- true;
    t.crashed_count <- t.crashed_count + 1;
    t.fault_epoch <- t.fault_epoch + 1
  end

let recover t node =
  if node < t.cap && t.crashed.(node) then begin
    t.crashed.(node) <- false;
    t.crashed_count <- t.crashed_count - 1;
    t.fault_epoch <- t.fault_epoch + 1
  end;
  t.post_heal <- true

let is_crashed t node = node < t.cap && t.crashed.(node)

(* Faulted-node views, ascending id order — the incremental monitor
   rebuilds its candidate set from these instead of scanning every
   vgroup. *)
let crashed_nodes t =
  if t.crashed_count = 0 then []
  else begin
    let acc = ref [] in
    for i = t.cap - 1 downto 0 do
      if t.crashed.(i) then acc := i :: !acc
    done;
    !acc
  end

let partitioned_nodes t =
  if t.tagged_count = 0 then []
  else begin
    let acc = ref [] in
    for i = t.cap - 1 downto 0 do
      if t.partitions.(i) <> 0 then acc := i :: !acc
    done;
    !acc
  end

let faulted_count t = t.crashed_count + t.tagged_count

(* Fault state per batch.  A batch whose senders and receivers are all
   up and share one partition has no cut cell, whatever else is down
   or partitioned.  [uncut] checks that once over the batch's two
   arrays instead of once per cell, and is trivially true with no
   fault at all. *)
let[@inline] up_in t part node = (not (is_crashed t node)) && partition_of t node = part

let rec srcs_up_in t part srcs i =
  i = Array.length srcs || (up_in t part (fst srcs.(i)) && srcs_up_in t part srcs (i + 1))

let rec dsts_up_in t part dsts j =
  j = Array.length dsts || (up_in t part dsts.(j) && dsts_up_in t part dsts (j + 1))

let uncut t ~srcs ~dsts =
  faulted_count t = 0
  || Array.length srcs = 0
  ||
  let part = partition_of t (fst srcs.(0)) in
  srcs_up_in t part srcs 0 && dsts_up_in t part dsts 0

let set_loss_boost t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Network.set_loss_boost: p outside [0, 1]";
  t.loss_boost <- p;
  t.loss_cut <- cut_of ~drop_probability:t.config.drop_probability ~boost:p

let loss_boost t = t.loss_boost

let set_latency_factor t f =
  if f <= 0.0 then invalid_arg "Network.set_latency_factor: factor must be positive";
  t.latency_factor <- f

let latency_factor t = t.latency_factor

let set_capacity_factor t f =
  if f <= 0.0 then invalid_arg "Network.set_capacity_factor: factor must be positive";
  t.capacity_factor <- f

(* Trace sites test [tracing] before building their optional
   arguments, so a disabled trace costs one load and no boxing. *)
let[@inline] tracing t =
  match t.trace with Some tr -> Trace.enabled tr | None -> false

let trace_emit t ~kind ?node ?peer ?size () =
  match t.trace with
  | Some tr -> Trace.emit tr ~time:(Engine.now t.engine) ~kind ?node ?peer ?size ()
  | None -> ()

(* Every drop is counted once in the aggregate [dropped] and once
   under a reason-specific metric, so accounting bugs show up as a
   mismatch between the two. *)
let drop t ~reason ~src ~dst =
  t.dropped <- t.dropped + 1;
  Metrics.bump t.drop_counts.(reason_index reason);
  if tracing t then trace_emit t ~kind:(reason_kind reason) ~node:src ~peer:dst ()

(* A crashed endpoint silences the link regardless of partition tags;
   the tags themselves are left untouched so a later [recover] drops
   the node back into whichever partition it was in. *)
let severed t ~src ~dst =
  if is_crashed t src || is_crashed t dst then Some Crash
  else if partition_of t src <> partition_of t dst then Some Partition
  else None

(* Hand a message to the receiver's current handler.  The handler is
   resolved here, not at arrival: under [node_capacity] it may have
   been replaced (or removed) while the message waited in the
   receiver's service queue.  [traced] is [tracing t], which a batch
   reads once. *)
let deliver t ~traced ~size ~src ~dst msg =
  match handler_of t dst with
  | None -> drop t ~reason:No_handler ~src ~dst
  | Some handler ->
    t.delivered <- t.delivered + 1;
    if t.post_heal then Metrics.bump t.post_heal_count;
    if traced then trace_emit t ~kind:"net.deliver" ~node:dst ~peer:src ~size ();
    handler ~src msg

(* Deliver one message that survived transit.  Receiver service time
   (node_capacity) is charged here, and only for messages that are
   actually processed: a message dropped by the delivery-time
   partition re-check or a missing handler must not advance the
   receiver's queue tail, or dropped traffic would permanently consume
   receiver capacity.  [uncut] skips the cut check: the caller knows
   the pair is up and in one partition. *)
let arrive t ~traced ~uncut ~size ~src ~dst msg =
  match if uncut then None else severed t ~src ~dst with
  | Some reason -> drop t ~reason ~src ~dst
  | None -> (
    match t.config.node_capacity with
    | None -> deliver t ~traced ~size ~src ~dst msg
    | Some capacity ->
      if not (has_handler t dst) then drop t ~reason:No_handler ~src ~dst
      else begin
        (* The receiver serves messages in arrival order at a bounded
           rate; a hot node's queue tail pushes delivery out. *)
        let capacity = capacity *. t.capacity_factor in
        let arrival = Engine.now t.engine in
        let tail = Float.max arrival t.ready.(dst) in
        let finish = tail +. (1.0 /. capacity) in
        t.ready.(dst) <- finish;
        Engine.schedule ~label:"net.service" t.engine ~delay:(finish -. arrival) (fun () ->
            deliver t ~traced:(tracing t) ~size ~src ~dst msg)
      end)

(* Admission, the one per-message step every send shares: the
   [net.send] trace, the cut check and the loss draw.  The draw is
   made even for a cut pair, so the RNG stream does not depend on the
   fault state.  The caller adds the traffic counters and reads
   [traced] and [uncut] once per batch: admission runs no callback,
   so neither can change between the cells of one batch, and in an
   uncut batch no pair is cut.  Returns whether the message survives
   into transit. *)
let[@inline] admit t ~traced ~uncut ~threshold ~src ~dst ~size =
  if traced then trace_emit t ~kind:"net.send" ~node:src ~peer:dst ~size ();
  let lost = Atum_util.Rng.bernoulli_below t.rng threshold in
  match if uncut then None else severed t ~src ~dst with
  | Some reason ->
    drop t ~reason ~src ~dst;
    false
  | None ->
    if lost then begin
      drop t ~reason:Loss ~src ~dst;
      false
    end
    else true

let transit_delay t = sample_latency t *. t.latency_factor

let send ?(size = 64) t ~src ~dst msg =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size;
  if
    admit t ~traced:(tracing t) ~uncut:(faulted_count t = 0) ~threshold:t.loss_cut
      ~src ~dst ~size
  then
    Engine.schedule ~label:"net.transit" t.engine ~delay:(transit_delay t) (fun () ->
        arrive t ~traced:(tracing t) ~uncut:false ~size ~src ~dst msg)

(* A batch in flight is the grid it was admitted as: the [srcs] and
   [dsts] arrays, the survivor count, and a survival mask with one bit
   per (src, dst) cell in src-major order, so cell [k] is row
   [k / width], column [k mod width].  Admission and arrival walk the
   same grid in the same order, so no per-message record is built.
   Each batch owns its mask: a handler may send (and so admit a new
   batch) while an earlier batch is still being walked.  The mask
   starts all ones and admission clears the bit of each dropped cell,
   so the common all-surviving row writes nothing. *)
let[@inline] clear_bit mask k =
  Bytes.set mask (k lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.get mask (k lsr 3)) land lnot (1 lsl (k land 7))))

let[@inline] bit mask k = Char.code (Bytes.get mask (k lsr 3)) land (1 lsl (k land 7)) <> 0

(* The per-cell admission, for a batch that may be cut or is traced;
   returns the survivor count. *)
let admit_grid t ~traced ~uncut ~threshold ~srcs ~dsts mask =
  let width = Array.length dsts and survived = ref 0 in
  for row = 0 to Array.length srcs - 1 do
    let src, size = srcs.(row) in
    t.sent <- t.sent + width;
    t.bytes <- t.bytes + (width * size);
    for j = 0 to width - 1 do
      if admit t ~traced ~uncut ~threshold ~src ~dst:dsts.(j) ~size then incr survived
      else clear_bit mask ((row * width) + j)
    done
  done;
  !survived

(* The tight admission loop, for a batch that is uncut and untraced:
   no cell can be cut and none is traced, so a row is its loss draws,
   made by [Rng.bernoulli_row] in the same order as the per-cell path,
   and a bit cleared per loss.  Losses are counted once per row;
   admission runs no callback, so nothing can read a counter between
   the cells of a row. *)
let admit_plain t ~threshold ~srcs ~width mask =
  let survived = ref 0 in
  for row = 0 to Array.length srcs - 1 do
    let size = snd srcs.(row) in
    t.sent <- t.sent + width;
    t.bytes <- t.bytes + (width * size);
    let lost = Atum_util.Rng.bernoulli_row t.rng threshold mask ~first:(row * width) ~width in
    if lost > 0 then begin
      t.dropped <- t.dropped + lost;
      Metrics.bump ~by:lost t.drop_counts.(reason_index Loss)
    end;
    survived := !survived + width - lost
  done;
  !survived

(* The accounting half of [arrive], for a cell whose receiver's
   handler could not act on it: the delivery-time cut and handler
   checks with their drop reasons, the delivered counter and the
   post-heal label, but no handler call.  In an uncut batch the common
   case is two loads and a counter. *)
let count_arrival t ~uncut ~src ~dst =
  match if uncut then None else severed t ~src ~dst with
  | Some reason -> drop t ~reason ~src ~dst
  | None ->
    if not (has_handler t dst) then drop t ~reason:No_handler ~src ~dst
    else begin
      t.delivered <- t.delivered + 1;
      if t.post_heal then Metrics.bump t.post_heal_count
    end

(* Settled columns: bit [j] is set where the [j]th destination is
   registered and the network's [settled] predicate holds for it, at
   arrival.  They fit one int: a column past the first
   [Sys.int_size - 1] is never settled, which only costs it the
   handler call (a vgroup is far smaller).  An unregistered
   destination is left unsettled: [arrive] drops its cells for the
   same reason [count_arrival] would.  None are settled while tracing
   is on (a handler call traces its receive) or under [node_capacity]
   (delivery happens later, when the predicate may no longer hold). *)
let max_settled = Sys.int_size - 1

let settled_columns t ~traced msg dsts =
  let cols = ref 0 in
  if Option.is_none t.config.node_capacity && not traced then
    for j = 0 to min (Array.length dsts) max_settled - 1 do
      let dst = dsts.(j) in
      if has_handler t dst && t.settled dst msg then cols := !cols lor (1 lsl j)
    done;
  !cols

(* One arrival walk over the grid, settled cells only counted.
   [epoch] is the fault epoch at which the batch was found uncut, or
   -1: a handler called during the walk may crash or partition a node,
   and from then on each cell checks its own pair again. *)
let arrive_grid t ~traced ~epoch ~srcs ~dsts mask cols msg =
  let width = Array.length dsts in
  for row = 0 to Array.length srcs - 1 do
    let src, size = srcs.(row) in
    for j = 0 to width - 1 do
      if bit mask ((row * width) + j) then begin
        let dst = dsts.(j) and uncut = epoch = t.fault_epoch in
        if j < max_settled && cols land (1 lsl j) <> 0 then count_arrival t ~uncut ~src ~dst
        else arrive t ~traced ~uncut ~size ~src ~dst msg
      end
    done
  done

(* When every column is settled no handler runs, so nothing the walk
   reads can change under it; with the batch uncut, each surviving
   cell is then a plain delivery, and the batch is counted from its
   survivor count without walking it. *)
let arrive_batch t ~srcs ~dsts ~survived mask msg =
  let width = Array.length dsts and traced = tracing t in
  let cols = settled_columns t ~traced msg dsts in
  let uncut = uncut t ~srcs ~dsts in
  if uncut && width <= max_settled && cols = (1 lsl width) - 1 then begin
    t.delivered <- t.delivered + survived;
    if t.post_heal then Metrics.bump ~by:survived t.post_heal_count
  end
  else
    arrive_grid t ~traced ~epoch:(if uncut then t.fault_epoch else -1) ~srcs ~dsts mask cols msg

(* Vgroup-round batching: every sender of a round fans out to every
   destination as ONE latency sample and ONE engine event, instead of
   one per (src, dst) pair.  Loss and cut checks stay per pair. *)
let send_group t ~srcs ~dsts msg =
  let width = Array.length dsts in
  let cells = width * Array.length srcs in
  if cells > 0 then begin
    let mask = Bytes.make ((cells + 7) lsr 3) '\255' in
    let traced = tracing t and uncut = uncut t ~srcs ~dsts in
    let threshold = t.loss_cut in
    let survived =
      if uncut && not traced then admit_plain t ~threshold ~srcs ~width mask
      else admit_grid t ~traced ~uncut ~threshold ~srcs ~dsts mask
    in
    if survived > 0 then
      Engine.schedule ~label:"net.transit.batch" t.engine ~delay:(transit_delay t) (fun () ->
          arrive_batch t ~srcs ~dsts ~survived mask msg)
  end

let send_multi ?(size = 64) t ~src ~dsts msg =
  send_group t ~srcs:[| (src, size) |] ~dsts:(Array.of_list dsts) msg

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let bytes_sent t = t.bytes
