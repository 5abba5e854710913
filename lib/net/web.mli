(** End-to-end web-serving stack: load generator → RSS NIC → N skyhttpd
    workers (one per core) → KV + xv6fs backends, with the
    worker→backend hop over SkyBridge direct calls or the baseline
    kernel's synchronous IPC (the slowpath variant).

    One record, one assembly and one run loop serve both arrival
    processes of {!Loadgen}: {!build} (closed arrivals) and {!build_open}
    (the {b overload} stack — open Poisson arrivals pumped by one extra
    core, admission control, deadline propagation, a retry budget and
    batched backend crossings). The kernel is seL4's. *)

type sky = {
  sb : Sky_core.Subkernel.t;
  mesh : Sky_mesh.Mesh.t;  (** routes and counts every backend call *)
  budget : Sky_core.Retry.budget;  (** drawn on under open arrivals only *)
}
(** What only the SkyBridge stack has. *)

(** A stack's type carries its transport's handles. *)
type _ transport = Ipc_slowpath : unit transport | Skybridge : sky transport

val rtt : int

type 'h t = {
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
  o_tier : Sky_xv6fs.Fs_tier.t;
  o_sky : 'h;
  mutable o_elapsed : int;  (** set by {!run}; see {!elapsed} *)
}
(** The stack. The [o_] names and {!open_t} are those of the former
    open-loop record, kept while the benchmark sources name them. *)

type 'h open_t = 'h t

(** {2 Stack pieces} — shared with the composed service-mesh scenario
    ({!Sky_experiments.Exp_mesh} wires the same backends under a
    different worker/queue topology). *)

val kv_backend :
  Sky_ukernel.Kernel.t -> Sky_kvstore.Kv_server.t -> Sky_kernels.Ipc.handler
(** {!Sky_kvstore.Kv_wire.handler} behind a freshly allocated
    instruction working set, touched on every call (so each server
    generation pollutes the caches like a real process would). *)

val bind :
  Sky_mesh.Service_graph.t ->
  Sky_ukernel.Kernel.t ->
  tier:Sky_xv6fs.Fs_tier.t ->
  kv:Sky_mesh.Service_graph.server ->
  deadline:(core:int -> int) ->
  Sky_ukernel.Proc.t ->
  Httpd.binding
(** A worker's {!Httpd.binding} over its edges to the KV server (the
    {!Sky_kvstore.Kv_wire} messages, written from the request's slices)
    and the tier's FS: the request's remaining [deadline] (-1 for none)
    is each call's timeout ({!Httpd.Expired} once spent), a mesh denial
    raises {!Httpd.Denied}; on a mesh graph a worker crash suspends the
    worker's bindings and its restart resumes them. *)

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
  transport:'h transport ->
  unit ->
  'h t
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
  transport:'h transport ->
  unit ->
  'h open_t
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

val start_run : _ t -> session
(** Arm the load generator and capture the start clock. *)

val advance : _ t -> session -> until:int -> [ `Paused | `Done ]
(** Step the workers (and, under open arrivals, the pump) by virtual
    time until every live core's clock reaches [until] ([`Paused]) or
    every arrival is resolved and the server drained ([`Done], at which
    point {!elapsed} and {!throughput} are valid). Chunked advances
    replay exactly the step sequence of one {!run}. *)

val run : _ t -> unit
(** {!start_run}, then {!advance} until [`Done]. *)

val run_open : _ t -> unit
(** {!run}, under the former open-loop name. *)

val throughput : _ t -> float
(** Responses per simulated second, over {!elapsed}. *)

val elapsed : _ t -> int
(** The busiest worker core's cycles across the run. *)

val loadgen : _ t -> Loadgen.t
val httpd : _ t -> Httpd.t
val nic : _ t -> Nic.t
val kernel : _ t -> Sky_ukernel.Kernel.t
val subkernel : _ t -> Sky_core.Subkernel.t option
val mesh : _ t -> Sky_mesh.Mesh.t option

val sky : sky t -> sky
(** The SkyBridge stack's subkernel, mesh and retry budget. *)

val fs : _ t -> Sky_xv6fs.Fs.t
(** The mounted xv6fs backend (post-recovery handle on the SkyBridge
    path) — for fsck after a fault storm. *)

val worker_procs : _ t -> Sky_ukernel.Proc.t array
(** The worker processes, in core order — for per-process census
    (e.g. {!Sky_core.Subkernel.process_evictions}). *)
