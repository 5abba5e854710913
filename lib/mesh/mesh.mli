(** Capability-routed service mesh over SkyBridge (ROADMAP item 5).

    Three pieces, layered on the PR 3 recovery machinery:

    - a {b name service} — a real SkyBridge server process ["nameserv"]
      mapping URI schemes ([kv://], [fs:///path], [blk://], [http://])
      to Subkernel server ids, with resolve/register/unregister carried
      over SkyBridge calls and a per-core resolution cache invalidated
      (by epoch) on re-registration {e and} on every binding change;
    - {b refcounted service capabilities} — a {!grant} derives child
      capabilities (from the name service's per-sid roots) to a client
      for the target and its whole dependency closure, then binds;
      revocation retires a pair for good
      ({!Sky_core.Subkernel.Retired}) only once no live capability of
      that client covers the server id, and {!revoke_service} destroys
      the entire derivation subtree at once;
    - a {b mesh audit} — {!audit} lowers the live binding set into
      {!Sky_analysis.Mesh_check} (no binding outlives its capability,
      no URI resolves to a dead server) beside every whole-machine
      pass.

    Fault site {!fault_site} (["server.nameserv"]): arm a [Crash] there
    to kill the name service mid-resolve; {!resolve} rides
    {!Sky_core.Retry.call}, so it restarts and retries transparently. *)

type t

type error =
  [ `Unresolved of string  (** no registration for the URI's scheme *)
  | `Denied of string  (** no live capability covers the target *)
  | `Failed of Sky_core.Subkernel.call_error  (** retry budget exhausted *)
  ]

exception Unknown_service of string
exception Denied of { uri : string; pid : int }

val fault_site : string

val create : ?retry_budget:Sky_core.Retry.budget -> Sky_core.Subkernel.t -> t
(** Spawns and registers the ["nameserv"] server (one connection per
    core) and the mesh's privileged ["meshd"] admin client, and
    subscribes to {!Sky_core.Subkernel.on_binding_change} so crash /
    revoke / rebind / restart all refresh the resolution caches.
    [retry_budget] (none by default) is applied to every routed
    {!call} so recovery retries cannot amplify overload; name-service
    admin traffic is never budgeted. *)

val connect : t -> Sky_ukernel.Proc.t -> unit
(** Bind [client] to the name service (deriving it a resolve
    capability). Idempotent; {!grant} calls it implicitly. *)

val register : t -> core:int -> uri:string -> server_id:int -> unit
(** Register (or re-register — the hot-upgrade primitive) the URI's
    scheme to [server_id], over a SkyBridge call to the name service.
    Re-registration bumps the epoch: every per-core cache entry for the
    scheme goes stale at once. *)

val unregister : t -> core:int -> uri:string -> unit

val resolve : t -> core:int -> client:Sky_ukernel.Proc.t -> string -> int option
(** Resolve a URI to a server id: per-core cache hit when the epoch
    matches, otherwise a SkyBridge call to the name service (under
    {!Sky_core.Retry.call} — a crashed name service restarts and the
    resolve retries). [client] must be {!connect}ed. *)

type grant

val grant :
  t ->
  core:int ->
  client:Sky_ukernel.Proc.t ->
  string ->
  grant
(** [grant t ~core ~client uri] derives send-only capabilities to
    [client] for the resolved server {e and every server in its
    dependency closure}, then establishes the Subkernel binding.
    @raise Unknown_service when the URI does not resolve. *)

val grant_uri : grant -> string
val grant_pid : grant -> int
val grant_live : grant -> bool
val subkernel : t -> Sky_core.Subkernel.t
(** The Subkernel whose bindings the mesh's capabilities govern. *)

val grants : t -> grant list

val revoke_grant : t -> core:int -> grant -> unit
(** Delete the grant's capabilities, then retire every pair of that
    client no longer covered by {e any} live capability (refcounting
    across overlapping grants), whatever its state — permanently: no
    restart, rebind or resume re-binds a [Retired] pair. *)

val revoke_service : t -> core:int -> string -> int
(** Destroy the service's entire capability derivation tree (seL4
    [revoke] on the root) and sweep every binding that lost coverage.
    Returns the number of grants retired. *)

val call :
  t ->
  core:int ->
  client:Sky_ukernel.Proc.t ->
  ?on_crash:(int -> unit) ->
  ?timeout:int ->
  string ->
  bytes ->
  (bytes, error) result
(** The routed call: resolve the URI, check the client holds a live
    send capability on the target (charging the check), then
    {!Sky_core.Retry.call} (under the mesh's retry budget, if any).
    [timeout] caps each attempt's server cycles — the deadline-
    propagation hook. [`Denied] is the least-privilege outcome —
    the client keeps running, the call never reaches the server. *)

val call_exn :
  t ->
  core:int ->
  client:Sky_ukernel.Proc.t ->
  ?on_crash:(int -> unit) ->
  ?timeout:int ->
  string ->
  bytes ->
  bytes
(** Like {!call} but raising {!Unknown_service} / {!Denied} /
    {!Sky_core.Retry.Gave_up}. *)

val audit_passes : t -> Sky_analysis.Audit.pass_result list
(** The whole-machine audit of a meshed machine, through the one driver
    {!Sky_core.Subkernel.audit_passes}: every pass (the §7 callee-saved
    check included), with the mesh invariants
    ([mesh.binding-outlives-cap], [mesh.uri-dangling]) over the live
    binding set, the capability registry and the name table, and
    Isoflow's [flow.*] reachability grounded in the capability closure
    (a binding forged around the mesh is a cross-domain view with no
    covering grant). *)

val audit : t -> Sky_analysis.Report.violation list
(** {!audit_passes}' violations, sorted; [[]] means clean. *)

val isoflow_input : t -> Sky_analysis.Isoflow.input
(** The Isoflow machine model with the capability-closure ground truth —
    what the differential sharing-graph snapshots consume. *)

val epoch : t -> int
val resolves : t -> int
(** Wire round trips to the name service (cache misses). *)

val cache_hits : t -> int
val denials : t -> int
val retry_stats : t -> Sky_core.Retry.stats

