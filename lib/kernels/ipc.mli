(** Synchronous IPC for the three baseline kernels.

    One [t] per kernel instance. Servers register an endpoint with a
    handler and a set of cores carrying server threads:

    - [cores = [c]] is the paper's {e ST-Server} configuration — a single
      working thread pinned to core [c]; calls from other cores take the
      cross-core path (IPIs, Figure 7's right bars).
    - one thread pinned per physical core is {e MT-Server}: every call
      finds a local thread and takes the local (fast, on seL4/Fiasco)
      path.

    Handlers run in the server's address space on whatever core serves
    the request, and may perform nested IPC calls (the SQLite stack:
    client → FS → block device). *)

type handler = core:int -> bytes -> bytes

type endpoint = {
  id : int;
  server : Sky_ukernel.Proc.t;
  handler : handler;
  mutable cores : int list;  (** cores with a server thread; [] = all *)
  stats : Breakdown.t;  (** accumulated over all calls *)
  mutable calls : int;
  root_cap : Sky_ukernel.Capability.t;
      (** the server's root capability on this endpoint (recv+grant) *)
}

type t

type long_ipc =
  | Shared_copy
      (** SS8.1's shared buffer, "which requires two memory copies" *)
  | Temp_map
      (** L4's temporary mapping: the sender's pages are mapped into the
          receiver for the transfer — one copy saved, per-page
          map/INVLPG work paid *)

val create :
  ?enforce_caps:bool -> ?long_ipc:long_ipc -> Sky_ukernel.Kernel.t -> t
(** With [enforce_caps] (default false, matching the permissive test
    setups), {!call} requires the client to hold a live send capability
    on the endpoint, seL4-style; grant one with {!grant_send}. *)

val caps : t -> Sky_ukernel.Capability.registry

val grant_send :
  t -> endpoint -> Sky_ukernel.Proc.t -> Sky_ukernel.Capability.t
(** Derive a send-only capability for the client from the server's root
    capability. Revoking the root's children (or deleting this cap) cuts
    the client off. *)

val register :
  t -> Sky_ukernel.Proc.t -> ?cores:int list -> handler -> endpoint

exception Message_too_large of { len : int; limit : int }
(** A message of [len] bytes does not fit the [limit]-byte IPC buffer
    ({!ipc_buffer_size}). Raised by {!call}, and by
    {!Sky_core.Subkernel.direct_server_call} for its shared buffers. *)

val call :
  t ->
  core:int ->
  client:Sky_ukernel.Proc.t ->
  endpoint ->
  bytes ->
  bytes
(** One synchronous IPC round trip: request [msg], reply returned.
    Charges all direct costs, performs the real mode/address-space
    switches on the core's vCPU, copies the message through simulated
    memory (polluting caches), and runs the handler in the server's
    context.

    Raises {!Message_too_large} for a request longer than
    {!ipc_buffer_size} before anything is charged. A reply that long is
    not copied: the reply leg still returns the client to its own
    address space in user mode, then {!Message_too_large} is raised. *)

val register_msg_limit : int
(** Messages at most this long travel in CPU registers (seL4 fastpath
    condition; 32 bytes ~ 4 message registers). *)

val ipc_buffer_size : int
(** Bytes of each process's IPC buffer (8 KiB): the longest message
    {!call} carries. *)
