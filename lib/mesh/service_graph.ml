open Sky_ukernel
module Subkernel = Sky_core.Subkernel
module Retry = Sky_core.Retry
module Ipc = Sky_kernels.Ipc

type route = Flat | Retry of Retry.stats | Mesh of Mesh.t

type transport =
  | Call of { delay : int }
  | Ipc of { pinned : bool }
  | Skybridge of Subkernel.t * route

(* The transport with what it needs at run time. *)
type t = Local of Kernel.t * int | Kernel_ipc of Ipc.t * bool | Sky of Subkernel.t * route

type target = Handler of Ipc.handler | Endpoint of Ipc.endpoint | Server_id of int
type server = { target : target; mutable uri : string }

let create kernel = function
  | Call { delay } -> Local (kernel, delay)
  | Ipc { pinned } -> Kernel_ipc (Ipc.create kernel, pinned)
  | Skybridge (sb, route) -> Sky (sb, route)

let foreign () = invalid_arg "Service_graph: a server of another transport"

let serve t ?connections ?(deps = []) ?core proc handler =
  let target =
    match t with
    | Local _ -> Handler handler
    | Kernel_ipc (ipc, pinned) ->
      let cores = match core with Some c when pinned -> [ c ] | _ -> [] in
      Endpoint (Ipc.register ipc proc ~cores handler)
    | Sky (sb, _) ->
      let id s = match s.target with Server_id sid -> sid | _ -> foreign () in
      Server_id
        (Subkernel.register_server sb proc ?connection_count:connections
           ~deps:(List.map id deps) handler)
  in
  { target; uri = "" }

let name t ~core ~uri s =
  s.uri <- uri;
  match (t, s.target) with
  | Sky (_, Mesh m), Server_id server_id -> Mesh.register m ~core ~uri ~server_id
  | _ -> ()

let bind t ~client s =
  match (t, s.target) with
  | Sky (_, Mesh m), _ -> ignore (Mesh.grant m ~core:0 ~client s.uri)
  | Sky (sb, _), Server_id server_id -> Subkernel.register_client_to_server sb client ~server_id
  | _ -> ()

(* The call without retry or routing. *)
let direct t ~client s =
  match (t, s.target) with
  | Local (_, 0), Handler h -> h
  | Local (kernel, delay), Handler h ->
    fun ~core msg ->
      Sky_sim.Cpu.charge (Kernel.cpu kernel ~core) delay;
      h ~core msg
  | Kernel_ipc (ipc, _), Endpoint ep -> fun ~core msg -> Ipc.call ipc ~core ~client ep msg
  | Sky (sb, _), Server_id server_id ->
    fun ~core msg -> Subkernel.direct_server_call sb ~core ~client ~server_id msg
  | _ -> foreign ()

let dep_edge t ~client s =
  bind t ~client s;
  direct t ~client s

let no_timeout ~core:_ = None

let edge t ?on_crash ?(timeout = no_timeout) ~client s =
  bind t ~client s;
  match (t, s.target) with
  | Sky (sb, Retry st), Server_id server_id ->
    let stats = Some st in
    fun ~core msg ->
      Retry.call ?stats ?timeout:(timeout ~core) ?on_crash sb ~core ~client ~server_id msg
  | Sky (_, Mesh m), _ ->
    let uri = s.uri in
    fun ~core msg -> Mesh.call_exn m ~core ~client ?on_crash ?timeout:(timeout ~core) uri msg
  | _ -> direct t ~client s

let restart t ~server_id =
  match t with Sky (sb, _) -> Subkernel.restart_server sb ~server_id | _ -> ()

let mesh = function Sky (_, Mesh m) -> Some m | _ -> None
