(** End-to-end web-serving stack: load generator → RSS NIC → N skyhttpd
    workers (one per core) → KV + xv6fs backends, with the
    worker→backend hop over SkyBridge direct calls or the baseline
    kernel's synchronous IPC (the slowpath variant).

    One record, one assembly and one run loop serve both arrival
    processes of {!Loadgen}: {!build} (closed arrivals) and {!build_open}
    (the {b overload} stack — open Poisson arrivals pumped by one extra
    core, admission control, deadline propagation, a retry budget and
    batched backend crossings). The kernel is seL4's. *)

type transport = Ipc_slowpath | Skybridge

val transport_name : transport -> string

val default_conns : int
val default_requests_per_conn : int
val rtt : int

type t = {
  o_machine : Sky_sim.Machine.t;
  o_kernel : Sky_ukernel.Kernel.t;
  o_workers : int;
  o_pump : bool;  (** open arrivals: core [o_workers] pumps them *)
  o_nic : Nic.t;
  o_httpd : Httpd.t;
  o_ol : Loadgen.t;
  o_sb : Sky_core.Subkernel.t option;
  o_mesh : Sky_mesh.Mesh.t option;
  o_budget : Sky_core.Retry.budget option;
  o_worker_procs : Sky_ukernel.Proc.t array;
  o_fs_cell : Sky_xv6fs.Fs.t ref;
  mutable o_elapsed : int;  (** set by {!run}; see {!elapsed} *)
}
(** The stack. The [o_] names and {!open_t} are those of the former
    open-loop record, kept while the benchmark sources name them. *)

type open_t = t

(** {2 Stack pieces} — shared with the composed service-mesh scenario
    ({!Sky_experiments.Exp_mesh} wires the same backends under a
    different worker/queue topology). *)

val kv_backend :
  Sky_ukernel.Kernel.t -> Sky_kvstore.Kv_server.t -> Sky_kernels.Ipc.handler
(** {!Sky_kvstore.Kv_wire.handler} behind a freshly allocated
    instruction working set, touched on every call (so each server
    generation pollutes the caches like a real process would). *)

val binding_of_calls :
  call_kv:(core:int -> bytes -> bytes) ->
  call_fs:(core:int -> bytes -> bytes) ->
  revoke:(core:int -> unit) ->
  rebind:(core:int -> unit) ->
  Httpd.binding
(** Lift raw wire calls into a worker's typed {!Httpd.binding}: KV
    operations in the {!Sky_kvstore.Kv_wire} messages (a batch in one
    ['B'] crossing), the FS side through
    {!Sky_xv6fs.Fs_iface.over_call}. *)

val provision_files : Sky_xv6fs.Fs.t -> seed:int -> (string * bytes) array
(** Create the static files the load mix reads (deterministic printable
    contents) through the server-side FS handle; returns name/content
    pairs for the load generator's response validation. *)

val build :
  ?seed:int ->
  ?cores:int ->
  ?conns:int ->
  ?requests_per_conn:int ->
  workers:int ->
  transport:transport ->
  unit ->
  t
(** The stack under closed arrivals: the machine, kernel, backends (KV
    store, xv6fs over a RAM disk), NIC with [workers] queues, [workers]
    worker processes bound to the backends over [transport], and the
    load generator. SkyBridge workers call through
    {!Sky_core.Retry.call}, so injected backend crashes recover
    transparently. *)

val build_open :
  ?seed:int ->
  ?admission:Httpd.admission ->
  ?ttl:int ->
  tenants:int ->
  mean_gap:int ->
  total:int ->
  workers:int ->
  transport:transport ->
  unit ->
  open_t
(** The same stack under open arrivals ([mean_gap] cycles between
    Poisson arrivals, [total] arrivals, spread over [tenants] pipelined
    connections) pumped by one extra core at index [workers]. [ttl]
    stamps a relative deadline on every request wire-side; [admission]
    configures the server's queue bounds / default deadline / batching.
    A token-bucket retry budget bounds crash-recovery retries, and each
    tenant's warm keys are provisioned server-side before traffic
    starts. *)

type session
(** The run loop's state between {!advance} calls. *)

val start_run : t -> session
(** Arm the load generator and capture the start clock. *)

val advance : t -> session -> until:int -> [ `Paused | `Done ]
(** Step the workers (and, under open arrivals, the pump) by virtual
    time until every live core's clock reaches [until] ([`Paused]) or
    every arrival is resolved and the server drained ([`Done], at which
    point {!elapsed} and {!throughput} are valid). Chunked advances
    replay exactly the step sequence of one {!run}. *)

val run : t -> unit
(** {!start_run}, then {!advance} until [`Done]. *)

val run_open : t -> unit
(** {!run}, under the former open-loop name. *)

val throughput : t -> float
(** Responses per simulated second, over {!elapsed}. *)

val elapsed : t -> int
(** The busiest worker core's cycles across the run. *)

val loadgen : t -> Loadgen.t
val httpd : t -> Httpd.t
val nic : t -> Nic.t
val kernel : t -> Sky_ukernel.Kernel.t
val subkernel : t -> Sky_core.Subkernel.t option

val mesh : t -> Sky_mesh.Mesh.t option
(** The service mesh routing worker→backend calls on the SkyBridge
    path ([kv://], [fs://], [blk://] plus the name service itself). *)

val retry_stats : t -> Sky_core.Retry.stats option

val retry_budget : t -> Sky_core.Retry.budget option
(** [Some] exactly under open arrivals. *)

val fs : t -> Sky_xv6fs.Fs.t
(** The mounted xv6fs backend (post-recovery handle on the SkyBridge
    path) — for fsck after a fault storm. *)

val worker_procs : t -> Sky_ukernel.Proc.t array
(** The worker processes, in core order — for per-process census
    (e.g. {!Sky_core.Subkernel.process_evictions}). *)
