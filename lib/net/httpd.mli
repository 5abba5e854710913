(** skyhttpd: N worker processes (worker [i] pinned to core [i]; workers
    [0..queues-1] each own a NIC ring) parsing HTTP-style requests and
    serving them through per-worker backend {!binding}s — mediated
    SkyBridge calls on the fast path, baseline kernel IPC on the
    slowpath variant.

    Requests are routed through a multi-receiver {!Sky_mesh.Endpoint},
    not by RSS: ring owners push demultiplexed requests onto the
    endpoint, any worker pops (own queue first, then work-stealing), and
    workers beyond the ring count live purely off the endpoint — one
    server URI fanning out across more cores than RX queues.

    {b Admission control} ({!admission}): bounded per-receiver queues
    shed overflow with a typed 503 at demux time; a TTL carried on the
    request (a [TTL<cycles> ] prefix) becomes an absolute deadline — expired
    requests are shed on pop, and the live deadline is exported
    ({!current_deadline}) so bindings can propagate the remaining budget
    as a backend call timeout. [a_batch_max > 1] lets a worker drain
    several queued requests per quantum and carry all their KV
    operations to the backend in one crossing ({!binding.kv_batch}),
    amortizing per-call overhead exactly when queues are deep.

    Fault site ["server.httpd"]: [Crash] kills a worker mid-request; the
    in-flight requests are parked, bindings are revoked, and the worker
    is restarted and re-bound (PR 3 machinery) with the requests
    replayed — zero lost requests. [Hang] shows up as a tail-latency
    spike. A binding that raises {!Denied} (capability revoked — least
    privilege) bounces the request to the next receiver; a request
    denied by {e every} worker terminates with a typed 403 instead of
    cycling forever. *)

type binding = {
  kv_put :
    core:int -> bytes -> key_off:int -> key_len:int -> value_off:int -> value_len:int -> bool;
  kv_get : core:int -> bytes -> key_off:int -> key_len:int -> bytes;
  fs_read : core:int -> name:string -> bytes option;
  kv_batch : core:int -> bytes -> bytes;
  revoke : core:int -> unit;
  rebind : core:int -> unit;
}
(** One worker's typed view of the backends, closed over its process and
    transport. Keys and values are slices of the request's wire bytes;
    [kv_get] answers the value, empty on a miss. [revoke]/[rebind]
    bracket a worker crash/restart; [kv_batch] carries a whole
    {!Sky_kvstore.Kv_wire} ['B'] message in one backend crossing and
    answers its reply — the batched worker→backend hop, taken only by a
    batch of two or more KV operations, so only when [a_batch_max > 1]. *)

type admission = {
  a_queue_cap : int option;
      (** per-receiver endpoint queue bound; [None] = unbounded *)
  a_default_ttl : int option;
      (** deadline (cycles from demux) stamped on TTL-less requests *)
  a_batch_max : int;  (** max requests drained per worker quantum *)
}

val no_admission : admission
(** Unbounded queues, no deadlines, singleton batches — byte-identical
    to the pre-admission server. *)

type t

val fault_site : string
(** ["server.httpd"] — arm {!Sky_faults.Fault} here to crash/hang
    workers mid-request. *)

exception Denied
(** Raised by a binding whose capability was revoked: the worker
    survives, counts the denial, and bounces the request to a peer.
    Once every worker has denied it, the request terminates as a typed
    403 ({!unservable}). *)

exception Expired
(** Raised by a deadline-aware binding when the request's remaining
    budget is gone: the request is shed with a 503 ({!shed_expired}). *)

val create :
  ?preload:string list ->
  ?file_cache:bool ->
  ?admission:admission ->
  ?wire_hint:(unit -> int) ->
  Sky_ukernel.Kernel.t ->
  Nic.t ->
  workers:(Sky_ukernel.Proc.t * binding) array ->
  queue_done:(queue:int -> bool) ->
  t
(** One worker per (process, binding) pair; worker [i] is pinned to core
    [i]. There must be at least as many workers as NIC queues; workers
    [0..queues-1] own a ring each and park blocked in recv on its IRQ,
    the rest park on the endpoint notification. The caller spawns the
    processes (they must already be registered as clients with whatever
    transport the bindings use). [preload] names static files each
    worker reads into its cache at boot, through its binding — the
    startup cost of not convoying every request on the FS big lock.
    [file_cache] (default true) enables the per-worker static-file
    cache; the composed mesh scenario disables it so every [Fs_get]
    exercises the capability-checked backend path. [admission] (default
    {!no_admission}) configures queue bounds, default deadlines and
    batching. [wire_hint] reports the next future wire event the rings
    cannot see (an open-loop generator's next arrival; -1 for none) so
    drained workers sleep to it. [queue_done] is the load generator's
    per-queue exit test. *)

val step : t -> core:int -> Sky_sim.Machine.step
(** One event-loop quantum of [core]'s worker; [Done] once every queue
    is done and the endpoint is drained. The run loop that steps the
    workers (and an open-loop pump) is {!Web}'s. *)

val served : t -> int
val bad_requests : t -> int

val dropped_packets : t -> int
(** Out-of-sequence packets the socket layer dropped (strays and
    duplicates): hostile wire input, counted, never fatal. *)

val restarts : t -> int
val hangs : t -> int

val denials : t -> int
(** Requests bounced to a peer because a binding raised {!Denied}. *)

val unservable : t -> int
(** Requests denied by {e every} worker and terminated with a 403 —
    the counted-error outcome of total capability revocation. *)

val shed_queue : t -> int
(** Requests 503-shed at demux because the target endpoint queue was at
    its [a_queue_cap] bound. *)

val shed_expired : t -> int
(** Requests 503-shed because their deadline passed while queued (or
    mid-dispatch, via {!Expired}). *)

val shed : t -> int
(** [shed_queue + shed_expired]. *)

val batches : t -> int
(** Batched worker→backend crossings issued (≥ 2 KV ops each). *)

val batched_ops : t -> int
(** KV operations carried by those crossings. *)

val current_deadline : t -> core:int -> int
(** Absolute deadline of the request being dispatched on [core], -1 for
    none — what a deadline-propagating binding reads to derive the
    backend call timeout. *)

val steals : t -> int
(** Endpoint pops satisfied from a peer's receive queue. *)

val endpoint : t -> Sky_mesh.Endpoint.t

val slots_in_use : t -> int
(** Requests demultiplexed and not yet answered: each holds an int slot
    from its demux until its terminal response (200, 400, 403, 404, 500
    or 503) is sent. *)

val worker_served : t -> int -> int
