(** seL4-style capabilities for IPC endpoints.

    The paper's baseline fastpath cost includes "various security checks,
    endpoint management and capability enforcement" (§2.1.1); this module
    makes the capability part real. Capabilities name an endpoint, carry
    rights and a badge, and form a derivation tree (seL4's CDT):
    [derive] hands out diminished children, [revoke] destroys an entire
    subtree at once, cutting off every process the subtree was granted
    to. *)

type rights = { send : bool; recv : bool; grant : bool }

val all_rights : rights
val send_only : rights

type t
(** A capability handle (owned by one process, naming one endpoint). *)

type registry
(** All capability spaces of one kernel instance. *)

exception Cap_denied of { pid : int; target : int; reason : string }

val create_registry : unit -> registry

val mint :
  registry -> owner:int -> target:int -> rights:rights -> badge:int -> t
(** A fresh root capability (kernel privilege — used at endpoint
    registration). *)

val derive : registry -> t -> new_owner:int -> ?badge:int -> rights -> t
(** Child capability with rights diminished to the intersection. The
    parent must carry [grant].
    @raise Cap_denied if the parent lacks [grant] or has been revoked. *)

val revoke : registry -> t -> unit
(** Destroy every descendant (transitively, across processes); the
    capability itself survives — seL4 semantics. *)

val delete : registry -> t -> unit
(** Destroy this capability and its subtree. *)

val is_live : registry -> t -> bool
val target : t -> int
val badge : t -> int
val rights : t -> rights

val check : registry -> pid:int -> target:int -> need:rights -> bool
(** Does [pid] hold any live capability on [target] covering [need]? *)
