(** The capability-routed service mesh (ROADMAP item 5): a name-service
    process mapping URI schemes to Subkernel server ids — resolve /
    register / unregister themselves carried over SkyBridge — plus
    refcounted service capabilities layered on {!Sky_ukernel.Capability}
    and {!Sky_core.Subkernel.revoke_binding}.

    Authority model: the name service owns one root capability per
    registered server id. A {!grant} derives a child capability to the
    client for the target {e and every server in its dependency closure}
    (a client bound to [fs://] is transitively bound to the block device
    the FS calls, §4.2 — the grant must cover what the binding covers, or
    the audit would flag the dep binding as unauthorized). Revocation is
    refcounted through the capability registry itself: a pair is retired
    ([Retired] — permanent, recovery must not re-establish it) only when
    {e no} live capability of that client still covers the server id.

    Resolution caching: per-core caches keyed by scheme, invalidated by
    a global epoch that bumps on every (re-)registration {e and} on
    every Subkernel binding change (via {!Sky_core.Subkernel.on_binding_change})
    — so a crash + rebind during a resolved call can never leave a stale
    sid reachable by URI. *)

open Sky_sim
open Sky_ukernel
module Subkernel = Sky_core.Subkernel
module Retry = Sky_core.Retry

let cache_hit_cycles = 60 (* per-core cache probe *)
let cap_check_cycles = 40 (* capability-space walk *)
let ns_lookup_cycles = 180 (* name-service table op, inside the handler *)

let fault_site = "server.nameserv"

type error =
  [ `Unresolved of string | `Denied of string | `Failed of Subkernel.call_error ]

exception Unknown_service of string
exception Denied of { uri : string; pid : int }

type grant = {
  g_uri : string;
  g_client : Proc.t;
  g_sid : int;  (** primary server id at grant time *)
  g_closure : int list;  (** dependency closure the grant covers *)
  g_caps : (int * Capability.t) list;  (** server id -> derived capability *)
  mutable g_live : bool;
}

(* One scheme's resolution in a core's cache. *)
type centry = { c_scheme : string; mutable c_sid : int; mutable c_epoch : int }

type t = {
  sb : Subkernel.t;
  kernel : Kernel.t;
  caps : Capability.registry;
  table : (string, int) Hashtbl.t;  (** authoritative scheme -> sid *)
  roots : (int, Capability.t) Hashtbl.t;  (** per-sid root capability *)
  mutable epoch : int;
  cache : centry list array;  (** per core: one entry per scheme resolved there *)
  ns_proc : Proc.t;
  mutable ns_sid : int;
  admin : Proc.t;  (** the mesh's own privileged client for wire ops *)
  mutable grants : grant list;  (** newest first; order never observed *)
  rstats : Retry.stats option;  (** [Some], built once: passed on every call *)
  rbudget : Retry.budget option;  (** retry budget for routed calls *)
  mutable resolves : int;  (** wire round trips to the name service *)
  mutable cache_hits : int;
  mutable denials : int;
}

(* ---- name-service wire protocol ---- *)

(* Fresh per reply: handlers hand the bytes to transport code that may
   outlive the call, so a shared mutable constant would be a (latent)
   cross-call, cross-domain alias. *)
let ok_reply () = Bytes.make 1 '\000'

let enc_resolve scheme =
  let b = Bytes.create (1 + String.length scheme) in
  Bytes.set b 0 'R';
  Bytes.blit_string scheme 0 b 1 (String.length scheme);
  b

let enc_register ~sid scheme =
  let b = Bytes.create (5 + String.length scheme) in
  Bytes.set b 0 'G';
  Bytes.set_int32_le b 1 (Int32.of_int sid);
  Bytes.blit_string scheme 0 b 5 (String.length scheme);
  b

let enc_unregister scheme =
  let b = Bytes.create (1 + String.length scheme) in
  Bytes.set b 0 'U';
  Bytes.blit_string scheme 0 b 1 (String.length scheme);
  b

let invalidate t = t.epoch <- t.epoch + 1

(* The answer to an empty, unknown or short request. *)
let err_reply () = Bytes.make 1 '\001'

let ns_handler t : Sky_kernels.Ipc.handler =
 fun ~core msg ->
  Kernel.user_compute t.kernel ~core ~cycles:ns_lookup_cycles;
  match if Bytes.length msg = 0 then '\000' else Bytes.get msg 0 with
  | 'R' ->
    let scheme = Bytes.sub_string msg 1 (Bytes.length msg - 1) in
    let sid =
      match Hashtbl.find_opt t.table scheme with Some s -> s | None -> -1
    in
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int sid);
    b
  | 'G' when Bytes.length msg >= 5 ->
    let sid = Int32.to_int (Bytes.get_int32_le msg 1) in
    let scheme = Bytes.sub_string msg 5 (Bytes.length msg - 5) in
    Hashtbl.replace t.table scheme sid;
    invalidate t;
    Sky_trace.Trace.instant ~core ~cat:"mesh" "mesh.register";
    ok_reply ()
  | 'U' ->
    let scheme = Bytes.sub_string msg 1 (Bytes.length msg - 1) in
    Hashtbl.remove t.table scheme;
    invalidate t;
    ok_reply ()
  | _ -> err_reply ()

(* ---- capability plumbing ---- *)

let root_of t sid =
  match Hashtbl.find_opt t.roots sid with
  | Some c when Capability.is_live t.caps c -> c
  | _ ->
    let c =
      Capability.mint t.caps ~owner:t.ns_proc.Proc.pid ~target:sid
        ~rights:Capability.all_rights ~badge:sid
    in
    Hashtbl.replace t.roots sid c;
    c

let covered t ~pid ~sid =
  Capability.check t.caps ~pid ~target:sid ~need:Capability.send_only

(* Retire every mesh-managed pair no longer covered by a live
   capability, whatever state it is in (bound, orphaned by a crash or
   parked by a suspend), in (pid, sid) order, and retire grants whose
   primary capability died. The refcount semantics live here: as long
   as ANY live grant of the same client still covers a server id, the
   pair survives. *)
let sweep t ~core ~reason =
  List.iter
    (fun g ->
      if g.g_live && not (Capability.is_live t.caps (List.assoc g.g_sid g.g_caps))
      then g.g_live <- false)
    t.grants;
  List.concat_map (fun g -> List.map (fun sid -> (g.g_client.Proc.pid, sid)) g.g_closure) t.grants
  |> List.sort_uniq compare
  |> List.iter (fun (pid, sid) ->
         if sid <> t.ns_sid && not (covered t ~pid ~sid) then
           let g = List.find (fun g -> g.g_client.Proc.pid = pid) t.grants in
           Subkernel.revoke_binding t.sb ~core g.g_client ~server_id:sid ~reason ~into:Retired)

let connect t client =
  let pid = client.Proc.pid in
  if not (covered t ~pid ~sid:t.ns_sid) then begin
    ignore
      (Capability.derive t.caps (root_of t t.ns_sid) ~new_owner:pid
         ~badge:t.ns_sid Capability.send_only);
    Subkernel.register_client_to_server t.sb client ~server_id:t.ns_sid
  end

(* ---- construction ---- *)

let create ?retry_budget sb =
  let kernel = Subkernel.kernel sb in
  let cores = Machine.n_cores kernel.Kernel.machine in
  let ns_proc = Kernel.spawn kernel ~name:"nameserv" in
  let admin = Kernel.spawn kernel ~name:"meshd" in
  let t =
    {
      sb;
      kernel;
      caps = Capability.create_registry ();
      table = Hashtbl.create 8;
      roots = Hashtbl.create 8;
      epoch = 0;
      cache = Array.make cores [];
      ns_proc;
      ns_sid = -1;
      admin;
      grants = [];
      rstats = Some (Retry.create_stats ());
      rbudget = retry_budget;
      resolves = 0;
      cache_hits = 0;
      denials = 0;
    }
  in
  t.ns_sid <-
    Subkernel.register_server sb ns_proc ~connection_count:cores (ns_handler t);
  ignore (root_of t t.ns_sid);
  (* Satellite fix: ANY binding change — revoke on crash, rebind,
     restart_server re-establishment — invalidates every per-core
     resolution cache, so recovery can never race a stale URI entry. *)
  Subkernel.on_binding_change sb (fun ~server_id:_ -> invalidate t);
  connect t admin;
  t

(* ---- wire operations ---- *)

let register t ~core ~uri ~server_id =
  let scheme = Uri.service uri in
  ignore
    (Retry.call ?stats:t.rstats t.sb ~core ~client:t.admin ~server_id:t.ns_sid
       (enc_register ~sid:server_id scheme));
  ignore (root_of t server_id)

let unregister t ~core ~uri =
  let scheme = Uri.service uri in
  ignore
    (Retry.call ?stats:t.rstats t.sb ~core ~client:t.admin ~server_id:t.ns_sid
       (enc_unregister scheme))

(* The core's cache entry for [uri]'s scheme, compared in place: a
   routed call copies its scheme only on a miss. *)
let rec find_entry uri = function
  | [] -> raise Not_found
  | e :: rest -> if Uri.has_scheme e.c_scheme uri then e else find_entry uri rest

(* A miss or a stale entry: resolve over the wire and refill the entry. *)
let resolve_miss t ~core ~client uri =
  let scheme = Uri.service uri in
  t.resolves <- t.resolves + 1;
  let reply =
    Retry.call ?stats:t.rstats t.sb ~core ~client ~server_id:t.ns_sid (enc_resolve scheme)
  in
  let sid = Int32.to_int (Bytes.get_int32_le reply 0) in
  (match find_entry uri t.cache.(core) with
  | e ->
    e.c_sid <- sid;
    e.c_epoch <- t.epoch
  | exception Not_found ->
    t.cache.(core) <- { c_scheme = scheme; c_sid = sid; c_epoch = t.epoch } :: t.cache.(core));
  sid

(* The server id for [uri], negative when the name service has none. *)
let resolve_sid t ~core ~client uri =
  match find_entry uri t.cache.(core) with
  | e when e.c_epoch = t.epoch ->
    t.cache_hits <- t.cache_hits + 1;
    Cpu.charge (Kernel.cpu t.kernel ~core) cache_hit_cycles;
    e.c_sid
  | _ | (exception Not_found) -> resolve_miss t ~core ~client uri

let resolve t ~core ~client uri =
  let sid = resolve_sid t ~core ~client uri in
  if sid < 0 then None else Some sid

let server_of_uri t uri = Hashtbl.find_opt t.table (Uri.service uri)

(* ---- grant / revoke ---- *)

let grant t ~core ~client uri =
  connect t client;
  let pid = client.Proc.pid in
  match resolve t ~core ~client:t.admin uri with
  | None -> raise (Unknown_service uri)
  | Some sid ->
    let closure = Subkernel.server_dep_closure t.sb ~server_id:sid in
    let caps =
      List.map
        (fun s ->
          (s,
           Capability.derive t.caps (root_of t s) ~new_owner:pid ~badge:s
             Capability.send_only))
        closure
    in
    Subkernel.register_client_to_server t.sb client ~server_id:sid;
    let g = { g_uri = uri; g_client = client; g_sid = sid; g_closure = closure;
              g_caps = caps; g_live = true }
    in
    t.grants <- g :: t.grants;
    Sky_trace.Trace.instant ~core ~cat:"mesh" "mesh.grant";
    g

let grant_uri g = g.g_uri
let grant_pid g = g.g_client.Proc.pid
let grant_live g = g.g_live
let subkernel t = t.sb
let grants t = List.rev t.grants

let revoke_grant t ~core g =
  if g.g_live then begin
    List.iter (fun (_, c) -> Capability.delete t.caps c) g.g_caps;
    g.g_live <- false;
    Sky_trace.Trace.instant ~core ~cat:"mesh" "mesh.revoke-grant";
    sweep t ~core ~reason:("mesh: grant on " ^ g.g_uri ^ " revoked")
  end

let revoke_service t ~core uri =
  match server_of_uri t uri with
  | None -> 0
  | Some sid ->
    let was_live = List.filter (fun g -> g.g_live) t.grants in
    (* seL4 semantics: revoking the root destroys every capability ever
       derived from it, across all clients, transitively. *)
    Capability.revoke t.caps (root_of t sid);
    Sky_trace.Trace.instant ~core ~cat:"mesh" "mesh.revoke-service";
    sweep t ~core ~reason:("mesh: service " ^ uri ^ " revoked");
    List.length (List.filter (fun g -> not g.g_live) was_live)

(* ---- the routed call ---- *)

(* The server a routed call may reach: its id, [unresolved] or
   [denied]. Outcomes are immediates, so the routing step allocates
   nothing. *)
let unresolved = -1
let denied = -2

let route t ~core ~client uri =
  let sid = resolve_sid t ~core ~client uri in
  if sid < 0 then unresolved
  else begin
    Cpu.charge (Kernel.cpu t.kernel ~core) cap_check_cycles;
    if covered t ~pid:client.Proc.pid ~sid then sid
    else begin
      t.denials <- t.denials + 1;
      Sky_trace.Trace.instant ~core ~cat:"mesh" "mesh.denied";
      denied
    end
  end

let retry_call t ~core ~client ?on_crash ?timeout sid msg =
  Retry.call ?stats:t.rstats ?budget:t.rbudget ?timeout ?on_crash t.sb ~core ~client
    ~server_id:sid msg

let call t ~core ~client ?on_crash ?timeout uri msg =
  let sid = route t ~core ~client uri in
  if sid = unresolved then Error (`Unresolved uri)
  else if sid = denied then Error (`Denied uri)
  else
    match retry_call t ~core ~client ?on_crash ?timeout sid msg with
    | reply -> Ok reply
    | exception Retry.Gave_up e -> Error (`Failed e)

(* The routed call without a result to unwrap: what a serving layer
   calls per request. *)
let call_exn t ~core ~client ?on_crash ?timeout uri msg =
  let sid = route t ~core ~client uri in
  if sid = unresolved then raise (Unknown_service uri)
  else if sid = denied then raise (Denied { uri; pid = client.Proc.pid })
  else retry_call t ~core ~client ?on_crash ?timeout sid msg

(* ---- audit ---- *)

let mesh_input t =
  let resolutions =
    Hashtbl.fold (fun s sid acc -> (s ^ "://", sid) :: acc) t.table []
    |> List.sort compare
  in
  {
    Sky_analysis.Mesh_check.bindings = Subkernel.bindings t.sb;
    covered = (fun ~pid ~server_id -> covered t ~pid ~sid:server_id);
    resolutions;
    dead = Subkernel.dead_servers t.sb;
  }

(* The capability closure as (client pid, server pid) pairs — Isoflow's
   [flow.closure] ground truth. Stricter than the Subkernel's own
   binding-derived default: a binding forged around the mesh (no
   covering capability) is a cross-domain view with no grant. *)
let granted t =
  let sids = Subkernel.server_ids t.sb in
  let pids =
    List.sort_uniq compare (List.map fst (Subkernel.bindings t.sb))
  in
  List.concat_map
    (fun pid ->
      List.filter_map
        (fun (sid, spid) ->
          if covered t ~pid ~sid then Some (pid, spid) else None)
        sids)
    pids

let isoflow_input t = Subkernel.isoflow_input ~granted:(granted t) t.sb

(* The whole-machine audit: every Subkernel pass with the mesh
   invariants and the capability-closure ground truth. *)
let audit_passes t =
  Subkernel.audit_passes ~granted:(granted t) ~mesh:(mesh_input t) t.sb

let audit t = Sky_analysis.Audit.violations (audit_passes t)

(* ---- stats ---- *)

let epoch t = t.epoch
let resolves t = t.resolves
let cache_hits t = t.cache_hits
let denials t = t.denials
let retry_stats t = Option.get t.rstats
