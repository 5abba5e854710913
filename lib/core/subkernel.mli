(** The Subkernel side of SkyBridge: registration, calling keys, shared
    buffers, EPTP-list management and [direct_server_call] (§4.2–§4.4).

    This is the ~200-LoC-per-microkernel integration the paper describes,
    written once against the common {!Sky_ukernel.Kernel} substrate so it
    plugs into all three kernel personalities unchanged. *)

type t

(** Security violations detected by the optimistic checks. These and
    the two registration refusals below are exceptions of their own: a
    programming or security violation, not a failure a caller recovers
    from (DESIGN §5c). *)
exception Not_registered of { client_pid : int; server_id : int }

exception Bad_server_key of { server_id : int; presented : int64 }
(** The callee did not find the presented key in its calling-key table —
    an illegal server call (§4.4). *)

exception Bad_client_return of { server_id : int }
(** The callee returned a wrong client key — an illegal client return. *)

exception Wx_violation of { pid : int; va : int }
(** A process stored to one of its executable pages (§9 W^X). *)

exception Audit_failed of Sky_analysis.Report.violation list
(** The mandatory post-registration gadget audit found a VMFUNC encoding
    (or unverifiable bytes) in the process's executable pages after
    rewriting — the process is refused. *)

val init :
  ?backend:Backend.kind ->
  ?vpid:bool ->
  ?huge_ept:bool ->
  ?max_eptp:int ->
  ?max_bindings:int ->
  ?seed:int ->
  Sky_ukernel.Kernel.t ->
  t
(** Boots the Rootkernel under the given kernel (the one line of Subkernel
    boot code, §3.2) and hooks context switches to install EPTP lists.
    [max_eptp] (default 512) bounds the per-process EPTP list; binding
    more servers than fit triggers the LRU-eviction extension (§10).
    [max_bindings] (default unlimited) caps the {e global} number of live
    fast-path bindings: exceeding it retires the least-recently-calling
    process's bindings ([Retired]), so slot-evicted tenants degrade to
    slowpath IPC instead of failing — the tenant-scale recycling
    story. *)

val rootkernel : t -> Rootkernel.t
val kernel : t -> Sky_ukernel.Kernel.t

val backend : t -> Backend.kind
(** The isolation mechanism this machine was booted with. *)

val entry_filter : t -> Sky_ukernel.Entry_filter.t
(** The filtered-syscall backend's grant table (empty under the other
    backends) — exposed for the auditor's mutation tests. *)

val stats : t -> Sky_kernels.Breakdown.t
(** Accumulated direct-call cycle breakdown (for Figure 7). *)

val calls : t -> int

val evictions : t -> int
(** Per-process EPTP-list LRU evictions, totalled across processes. *)

val process_evictions : t -> Sky_ukernel.Proc.t -> int
(** EPTP-list LRU evictions charged to one process ([0] if it is not
    registered). *)

val installed_servers : t -> Sky_ukernel.Proc.t -> int list
(** Server ids currently holding EPTP-list slots for the process, in
    slot order (revoked/degenerate slots omitted). *)

val slot_evictions : t -> int
(** Bindings permanently retired by the global [max_bindings] budget —
    each victim process degrades to slowpath IPC rather than failing. *)

val live_bindings : t -> int

val security_events : t -> string list
(** Newest-first contents of the bounded security-event ring (capacity
    {!security_ring_capacity}); older events are dropped and counted. *)

val security_events_dropped : t -> int

val security_ring_capacity : int

(** How a mediated call ends abnormally, at every layer: the direct
    path, the slowpath, {!Retry} and the mesh. *)
type call_error =
  | Timeout of { server_id : int; elapsed : int }
      (** §7 watchdog: the server overran the cycle budget; the client
          was forced back to its own EPT with registers restored. *)
  | Crashed of { server_id : int }
      (** The server died mid-call, or its handler raised an exception
          the Subkernel has no name for (a faulting server); its
          connections were reaped. *)
  | Revoked of { server_id : int }
      (** The binding was revoked out from under the call (EPT fault,
          revocation storm, denied trap, or a nested call over a
          revoked pair). *)
  | Too_large of { server_id : int; len : int }
      (** A [len]-byte request or reply does not fit a connection's
          {!buffer_size}-byte buffer window. A request is refused before
          anything is charged or copied; a reply is never copied, and
          the client is forced back (§7). Not worth a retry. *)
  | Denied of { server_id : int }
      (** The caller's authority refuses the route: no live capability
          covers [server_id] ({!Sky_mesh.Mesh.call}). Not worth a
          retry. *)

exception Failed of call_error
(** The one way a recoverable call failure travels. A raised value,
    not a [result], because every layer can carry it: service-graph
    edges, handlers and [Fs_iface] are [core:int -> bytes -> bytes]
    closures and can only raise, so a [result] would be translated to
    an exception and back at each of them. *)

val buffer_size : int
(** Bytes of each connection's shared buffer window (8 KiB): the
    longest message a call carries. *)

val call :
  t ->
  core:int ->
  client:Sky_ukernel.Proc.t ->
  server_id:int ->
  timeout:int ->
  bytes ->
  bytes
(** Recovery-aware direct call: returns the reply or raises {!Failed}.
    The §7 watchdog is always armed: [timeout] cycles, or the default
    1M for [-1]. A revoked binding transparently degrades to the
    kernel-mediated slowpath; a degraded reply is counted in
    {!degraded_calls}, which is how a caller tells it from a direct
    one. A trap the entry filter refuses, or an EPT fault mid-call,
    retires the binding and raises [Revoked], so a retry rebinds. A
    handler that raises is a faulting server: [Crashed], reaped (only
    [Out_of_memory] and [Stack_overflow] propagate). Every error path
    forces the client back to its own EPT (VMFUNC-0 + saved-register
    restore) first. A direct call allocates, for a message over
    {!Sky_kernels.Ipc.register_msg_limit} bytes, the copies a crossing
    really makes; nothing else. *)

(** Where a revoked (client, server) pair waits: a top-level {!call}
    on it degrades to the slowpath, a nested one raises
    [Failed (Revoked _)]. *)
type revoked =
  | Orphaned  (** by a crash, EPT fault, denied trap or storm: {!restart_server}/{!rebind} *)
  | Parked  (** its client is suspended: only {!resume} re-binds it *)
  | Retired  (** swept or recycled: only a grant ({!register_client_to_server}) *)

val revoke_binding :
  t ->
  core:int ->
  Sky_ukernel.Proc.t ->
  server_id:int ->
  reason:string ->
  into:revoked ->
  unit
(** Move the pair to [into], or keep its state if that is the stronger
    one ([Orphaned < Parked < Retired]). A bound pair is torn down: its
    EPTP slot degenerates to the client's own EPT root, its calling key
    is zeroed, its buffers are unmapped and a security event is logged. *)

val restart_server : t -> server_id:int -> unit
(** Revive a crashed server and re-bind its [Orphaned] pairs in pid
    order, with fresh keys and binding EPTs. No-op unless it is dead. *)

val rebind : t -> Sky_ukernel.Proc.t -> server_id:int -> unit
(** Re-bind one [Orphaned] pair; no-op in any other state. Neither this
    nor a restart re-binds a [Retired] dependency. *)

val suspend : t -> core:int -> Sky_ukernel.Proc.t -> unit
(** Crash bracket: park every bound pair of the client. *)

val resume : t -> Sky_ukernel.Proc.t -> unit
(** Re-bind the client's [Parked] pairs in server-id order; one swept
    meanwhile is [Retired] and stays down. *)

val bindings : t -> (int * int) list
(** Every live direct binding as a sorted [(client_pid, server_id)] list
    — what the mesh auditor checks against the capability registry. *)

val on_binding_change : t -> (server_id:int -> unit) -> unit
(** Subscribe to binding-set changes: fired after a binding to
    [server_id] is created ({!register_client_to_server}, {!rebind},
    {!restart_server}, {!resume}) or destroyed ({!revoke_binding}). The mesh name
    service uses this to drop stale resolution-cache entries so a crash
    mid-call never leaves a dangling binding reachable by URI. *)

val server_dep_closure : t -> server_id:int -> int list
(** The server ids a client binding to [server_id] is transitively bound
    to (the §4.2 dependency closure, including [server_id] itself),
    sorted. *)

val dead_servers : t -> int list
val degraded_calls : t -> int
val forced_returns : t -> int
val restarts : t -> int

val call_state : t -> core:int -> (int * int) option
(** Per-connection call state: [Some (server_id, since)] while the
    client on [core] executes inside a server's space (innermost frame),
    [None] when idle. *)

val thread_regs : t -> Sky_ukernel.Proc.t -> int64 array
(** The process's modelled register file (16 GPRs, indexed by
    {!Sky_isa.Reg.encoding}) — what the trampoline saves on call entry
    and what a §7 forced return must restore. *)

val register_server :
  t ->
  Sky_ukernel.Proc.t ->
  ?connection_count:int ->
  ?deps:int list ->
  Sky_kernels.Ipc.handler ->
  int
(** [register_server t proc handler] implements Figure 4's
    [register_server]: scans and rewrites the process's code pages, maps
    the trampoline and per-connection stacks, allocates the calling-key
    table, and returns the server ID. [deps] lists server IDs this server
    itself calls (their EPTs are added to every client's EPTP list,
    §4.2/§7 "Malicious Server Call"). *)

val register_client_to_server :
  t -> Sky_ukernel.Proc.t -> server_id:int -> unit
(** Figure 4's [register_client_to_server]: rewrites/prepares the client,
    asks the Rootkernel for the CR3-remapped server EPT (plus the
    server's dependencies), generates the calling key and installs it in
    the server's table, and allocates the shared buffers. *)

val direct_server_call :
  t ->
  core:int ->
  client:Sky_ukernel.Proc.t ->
  server_id:int ->
  ?timeout:int ->
  ?attack:[ `Fake_server_key | `Corrupt_return_key ] ->
  bytes ->
  bytes
(** The kernel-less IPC (§3.1, Figure 4's [direct_server_call]): {!call}
    without the watchdog unless [timeout] is given. Returns the reply
    or raises {!Failed}, as {!call} does, a request or reply longer
    than {!buffer_size} included ([Too_large]). May be invoked from
    inside another server's handler (nested calls resolve against the
    EPTP list of the root client, which carries the dependency EPTs);
    its [Failed] then ends the outer call with the same error.
    [attack] is a test hook simulating a malicious participant. *)

val current_identity : t -> core:int -> int
(** Pid of the address space live on [core] — the misidentification fix. *)

val trampoline_code : t -> bytes

val trampoline_va : int
(** Where the trampoline page is mapped in every registered process. *)

val server_stack_va : t -> server_id:int -> conn:int -> int
(** Top of the [conn]-th per-connection stack the Subkernel mapped into
    the server at registration (what the trampoline installs into RSP). *)

val key_table_va : int
(** Where a server's calling-key table page is mapped (read-only). *)

val proc_is_clean : t -> Sky_ukernel.Proc.t -> bool
(** No VMFUNC outside the trampoline in the process's executable pages. *)

val trampoline_frame : t -> int
(** Physical address of the shared trampoline frame (exposed for the
    auditor's mutation tests). *)

val audit : t -> Sky_analysis.Report.violation list
(** Whole-machine static security audit through the unified pass
    registry ({!Sky_analysis.Audit}): gadget-audits every registered
    process image and the live trampoline bytes, abstract-interprets the
    trampoline, checks EPT/page-table W^X, trampoline protection and
    EPTP-list validity across all process and binding EPTs, and runs the
    Isoflow cross-domain reachability pass over the composed PT∘EPT
    sharing graph. [[]] means every invariant holds. *)

val audit_passes :
  ?granted:(int * int) list ->
  ?mesh:Sky_analysis.Mesh_check.input ->
  t ->
  Sky_analysis.Audit.pass_result list
(** {!audit} with per-pass structure and timing: the one whole-machine
    audit driver. Isoflow's authority ground truth is [granted]
    ((client pid, server pid) pairs), by default the binding registry
    itself; the [mesh] pass runs only when [mesh] is given.
    {!Sky_mesh.Mesh.audit_passes} passes the capability closure and the
    mesh's authority model. *)

val isoflow_input :
  ?granted:(int * int) list -> t -> Sky_analysis.Isoflow.input
(** The Isoflow machine model alone — what the differential
    sharing-graph snapshots ({!Sky_analysis.Isoflow.graph}) consume. *)

val server_ids : t -> (int * int) list
(** Sorted [(server_id, server_pid)] pairs for every registered server —
    for lowering capability grants (which speak server ids) into the pid
    pairs Isoflow's [flow.closure] check consumes. *)

val binding_ept :
  t -> Sky_ukernel.Proc.t -> server_id:int -> Sky_mmu.Ept.t option
(** The live binding EPT for [(client, server_id)], if bound — exposed
    for the auditor's mutation tests. [None] under non-VMFUNC backends. *)

val mpk_view : t -> Sky_ukernel.Proc.t -> (int * int) option
(** Under the MPK backend, the process's [(protection key, resting PKRU
    view)]; [None] otherwise or if unregistered. *)

val make_code_writable : t -> Sky_ukernel.Proc.t -> unit
(** W^X (§9): flip the process's code pages to writable+non-executable so
    dynamic code generation can proceed. *)

val restore_code_executable : t -> Sky_ukernel.Proc.t -> unit
(** Flip back to executable+read-only and {e rescan} the regenerated code,
    rewriting any VMFUNC the generator produced. *)
