(** One declared service graph: a composed workload's servers, their
    dependencies and its call edges, over one transport — so the same
    declarations run the same servers over function calls, the kernel's
    IPC or SkyBridge (Figures 2/8, Table 4).

    The caller spawns the processes in its own order (which fixes every
    frame they own); each step below performs its one registration,
    naming or binding at that point of the caller's sequence. Every edge
    is built at assembly: a call allocates only what its transport
    does. *)

type route =
  | Flat  (** direct server calls by id *)
  | Retry of Sky_core.Retry.stats
      (** client calls through {!Sky_core.Retry.call}, counted there *)
  | Mesh of Mesh.t  (** clients are granted and call by URI *)

type transport =
  | Call of { delay : int }
      (** one address space; each call charged [delay] cycles *)
  | Ipc of { pinned : bool }
      (** [pinned]: each server's one thread on its declared core *)
  | Skybridge of Sky_core.Subkernel.t * route

type t
type server

val create : Sky_ukernel.Kernel.t -> transport -> t

val serve :
  t ->
  ?connections:int ->
  ?deps:server list ->
  ?core:int ->
  Sky_ukernel.Proc.t ->
  Sky_kernels.Ipc.handler ->
  server
(** Register a server. [connections] and [deps] are SkyBridge's (the
    dependencies' EPTs ride in every client's EPTP list, §4.2); [core]
    is its placement when IPC pins. *)

val name : t -> core:int -> uri:string -> server -> unit
(** Name a server: a registration with the mesh's name service (so a
    re-registration is the hot upgrade), recorded only off the mesh. *)

val edge :
  t ->
  ?on_crash:(int -> unit) ->
  ?timeout:(core:int -> int) ->
  client:Sky_ukernel.Proc.t ->
  server ->
  core:int ->
  bytes ->
  bytes
(** Bind [client] to a server (a [register_client_to_server], or a mesh
    grant of its name) and return the call. [on_crash] and each call's
    [timeout] ([-1], the default: the Subkernel's watchdog) apply to
    the [Retry] and [Mesh] routes, whose call raises
    {!Sky_core.Subkernel.Failed} when it gives up. *)

val dep_edge : t -> client:Sky_ukernel.Proc.t -> server -> core:int -> bytes -> bytes
(** A server's edge to its dependency: bound as {!edge} binds, called by
    id without retry or routing — its crash surfaces in the dependent
    server's call, whose client recovers. *)

val restart : t -> server_id:int -> unit
(** Restart a crashed SkyBridge server. *)

val mesh : t -> Mesh.t option
