(** The whole web-serving stack, assembled end to end:

    load generator → NIC (RSS over [workers] queues) → skyhttpd workers
    (one per core) → KV store + xv6fs/RAM-disk backends, with the
    worker→backend hop carried either by mediated SkyBridge direct calls
    ([Skybridge]) or by the baseline kernel's synchronous IPC
    ([Ipc] — the slowpath variant, MT-server so every call at least
    takes the kernel's local path).

    Worker [i] is pinned to core [i]; backend handlers run on the
    calling worker's core in the server's address space, exactly as a
    direct server call (or local IPC) executes them. Backends and edges
    are declared in one {!Sky_mesh.Service_graph}; on the SkyBridge path
    every worker call rides the mesh's {!Sky_core.Retry.call}, so
    injected backend crashes recover transparently.

    One record, one assembly and one run loop serve both arrival
    processes of {!Loadgen}. Under [Closed] arrivals the workers alone
    are stepped. Under [Open] arrivals (the {b overload} stack) a
    dedicated wire-side core pumps Poisson arrivals, the server runs
    admission control ({!Httpd.admission}), request TTLs propagate as
    backend call timeouts, a {!Sky_core.Retry.budget} bounds recovery
    retries, and a per-tenant keyspace is provisioned server-side so
    load shedding can never masquerade as corruption. *)

open Sky_sim
open Sky_ukernel
open Sky_xv6fs
module Kv_server = Sky_kvstore.Kv_server
module Kv_wire = Sky_kvstore.Kv_wire
module Subkernel = Sky_core.Subkernel
module Retry = Sky_core.Retry
module Mesh = Sky_mesh.Mesh
module Graph = Sky_mesh.Service_graph

type sky = { sb : Subkernel.t; mesh : Mesh.t; budget : Retry.budget }
type _ transport = Ipc_slowpath : unit transport | Skybridge : sky transport

let default_conns = 120
let default_requests_per_conn = 8
let rtt = 2_000 (* wire round trip: client is "one switch away" *)
let n_files = 4
let file_bytes = 192
let backend_text = 6 * 1024 (* KV server instruction working set *)
let disk_blocks = 4096
let keys_per_tenant = 4

type 'h t = {
  o_machine : Machine.t;
  o_kernel : Kernel.t;
  o_workers : int;
  o_pump : bool;  (** open arrivals: core [o_workers] pumps them *)
  o_nic : Nic.t;
  o_httpd : Httpd.t;
  o_ol : Loadgen.t;
  o_sb : Subkernel.t option;
  o_mesh : Mesh.t option;
  o_budget : Retry.budget option;
  o_worker_procs : Proc.t array;
  o_fs_cell : Fs.t ref;
  o_tier : Fs_tier.t;
  o_sky : 'h;
  mutable o_elapsed : int;  (** busiest worker core's cycles across {!run} *)
}

type 'h open_t = 'h t

(* Allocate the KV server's instruction working set and serve the
   store's wire protocol behind it — shared with the composed mesh
   scenario, which runs two KV server generations over the same
   store. *)
let kv_backend kernel kv =
  let text_pa =
    Sky_mem.Frame_alloc.alloc_frames (Kernel.alloc kernel)
      ~count:((backend_text + 4095) / 4096)
  in
  let serve = Kv_wire.handler kv kernel in
  fun ~core msg ->
    Memsys.touch_range_state_only (Kernel.cpu kernel ~core) Memsys.Insn ~pa:text_pa
      ~len:backend_text;
    serve ~core msg

(* ---- a worker's typed binding over the graph's edges ---- *)

let fs_read_of iface ~core ~name =
  match iface.Fs_iface.lookup ~core name with
  | None -> None
  | Some inum ->
    let len = iface.Fs_iface.size ~core inum in
    Some (iface.Fs_iface.read ~core ~inum ~off:0 ~len)

let bind graph kernel ~tier ~kv ~deadline w =
  (* The live request's remaining budget becomes the backend call's
     timeout; a spent one sheds as 503 via [Httpd.Expired]. A revoked
     capability bounces the request to a privileged peer via
     [Httpd.Denied] instead of killing the worker. *)
  let timeout ~core =
    let d = deadline ~core in
    if d < 0 then None
    else
      let now = Cpu.cycles (Kernel.cpu kernel ~core) in
      if d <= now then raise Httpd.Expired else Some (d - now)
  in
  let routed call ~core msg =
    match call ~core msg with
    | r -> r
    | exception Mesh.Denied _ -> raise Httpd.Denied
    | exception Retry.Gave_up _ when deadline ~core >= 0 -> raise Httpd.Expired
  in
  let call_kv = routed (Graph.edge graph ~timeout ~client:w kv) in
  let iface =
    Fs_iface.over_call
      (routed
         (Graph.edge graph ~on_crash:(Fs_tier.on_crash tier) ~timeout ~client:w
            (Fs_tier.server tier)))
  in
  let sb = Option.map Mesh.subkernel (Graph.mesh graph) in
  {
    Httpd.kv_put =
      (fun ~core p ~key_off ~key_len ~value_off ~value_len ->
        String.equal
          (Bytes.unsafe_to_string
             (call_kv ~core (Kv_wire.insert_msg p ~key_off ~key_len p ~value_off ~value_len)))
          "ok");
    kv_get =
      (fun ~core p ~key_off ~key_len -> call_kv ~core (Kv_wire.query_msg p ~key_off ~key_len));
    fs_read = (fun ~core ~name -> fs_read_of iface ~core ~name);
    kv_batch = call_kv;
    revoke = (fun ~core -> Option.iter (fun sb -> Subkernel.suspend sb ~core w) sb);
    rebind = (fun ~core:_ -> Option.iter (fun sb -> Subkernel.resume sb w) sb);
  }

(* Provision the FS objects the load mix reads: deterministic printable
   contents, written through the server-side handle before the run. *)
let provision_files fs ~seed =
  let rng = Rng.create ~seed:(seed lxor 0xf11e5) in
  Array.init n_files (fun i ->
      let name = Printf.sprintf "web%d.html" i in
      let data = Bytes.create file_bytes in
      let head = Printf.sprintf "<html>%d:" i in
      Bytes.iteri
        (fun j _ ->
          if j < String.length head then Bytes.set data j head.[j]
          else Bytes.set data j (Char.chr (97 + Rng.int rng 26)))
        data;
      let inum = Fs.create fs ~core:0 name in
      Fs.write fs ~core:0 ~inum ~off:0 data;
      (name, data))

(* ---- the one assembly ---- *)

let assemble (type h) ~seed ~cores ~conns ~requests_per_conn ~admission ~workers
    ~(transport : h transport) arrivals : h t =
  if workers < 1 || workers > cores then
    invalid_arg "Web.build: workers must be in [1, cores]";
  (* The retry budget bounds the mesh's recovery retries under open
     arrivals only. *)
  let budget = Retry.budget ~seed in
  let o_budget = match arrivals with Loadgen.Open _ -> Some budget | Loadgen.Closed -> None in
  let machine = Machine.create ~cores ~mem_mib:128 () in
  let kernel = Kernel.create ~config:(Config.default Config.Sel4) machine in
  (* Backends: KV store + xv6fs over a RAM disk. *)
  let kv = Kv_server.create machine in
  let kv_h = kv_backend kernel kv in
  let ramdisk = Fs_tier.format kernel ~blocks:disk_blocks in
  let kv_proc = Kernel.spawn kernel ~name:"kvstore" in
  let fs_proc = Kernel.spawn kernel ~name:"xv6fs" in
  let disk_proc = Kernel.spawn kernel ~name:"blockdev" in
  let worker_procs = Array.init workers (fun _ -> Kernel.spawn kernel ~name:"httpd") in
  let (sky : h), o_sb, link =
    match transport with
    | Skybridge ->
      (* URI addressing through the mesh: servers are named by scheme,
         workers are granted capabilities and call by URI — no flat sid
         plumbing reaches the worker bindings. *)
      let sb = Subkernel.init ~seed kernel in
      let mesh = Mesh.create ?retry_budget:o_budget sb in
      ({ sb; mesh; budget }, Some sb, Graph.Skybridge (sb, Graph.Mesh mesh))
    | Ipc_slowpath -> ((), None, Graph.Ipc { pinned = false })
  in
  let graph = Graph.create kernel link in
  let tier = Fs_tier.create graph kernel ramdisk ~disk:disk_proc ~fs:fs_proc in
  let kv_server = Graph.serve graph ~connections:cores kv_proc kv_h in
  Graph.name graph ~core:0 ~uri:"fs://" (Fs_tier.server tier);
  Graph.name graph ~core:0 ~uri:"kv://" kv_server;
  (* Set to the httpd's live deadline once it exists. *)
  let deadline = ref (fun ~core:_ -> -1) in
  let files = provision_files (Fs_tier.fs tier) ~seed in
  (* Open arrivals: warm the per-tenant keyspace server-side before any
     traffic, so the read path touches only provisioned keys. *)
  (match arrivals with
  | Loadgen.Open { keys; _ } ->
    let cpu0 = Kernel.cpu kernel ~core:0 in
    Array.iter
      (Array.iter (fun (k, v) -> Kv_server.insert kv cpu0 ~key:(Bytes.of_string k) ~value:v))
      keys
  | Loadgen.Closed -> ());
  let nic = Nic.create kernel ~queues:workers in
  let lg =
    Loadgen.create nic ~seed ~mix:Loadgen.default_mix ~conns ~requests_per_conn ~rtt ~files
      arrivals
  in
  let httpd =
    Httpd.create kernel nic
      ~preload:(Array.to_list (Array.map fst files))
      ~admission
      ~wire_hint:(fun () -> Loadgen.next_event lg)
      ~workers:
        (Array.map
           (fun p ->
             (p, bind graph kernel ~tier ~kv:kv_server ~deadline:(fun ~core -> !deadline ~core) p))
           worker_procs)
      ~queue_done:(fun ~queue -> Loadgen.queue_done lg ~queue)
  in
  deadline := (fun ~core -> Httpd.current_deadline httpd ~core);
  {
    o_machine = machine;
    o_kernel = kernel;
    o_workers = workers;
    o_pump = o_budget <> None;
    o_nic = nic;
    o_httpd = httpd;
    o_ol = lg;
    o_sb;
    o_mesh = Graph.mesh graph;
    o_budget;
    o_worker_procs = worker_procs;
    o_fs_cell = Fs_tier.cell tier;
    o_tier = tier;
    o_sky = sky;
    o_elapsed = 0;
  }

let build ?(seed = 42) ?(cores = 8) ?(conns = default_conns)
    ?(requests_per_conn = default_requests_per_conn) ~workers ~transport () =
  assemble ~seed ~cores ~conns ~requests_per_conn ~admission:Httpd.no_admission ~workers
    ~transport Loadgen.Closed

(* Per-tenant warm keyspace: GETs under shedding read only these, so a
   shed PUT can never make a later read look corrupt. *)
let tenant_keys ~seed ~tenants =
  let rng = Rng.create ~seed:(seed lxor 0x7e4a47) in
  Array.init tenants (fun ti ->
      Array.init keys_per_tenant (fun ki ->
          (Printf.sprintf "t%d-p%d" ti ki, Loadgen.value_bytes rng (ti * 131) ki)))

let build_open ?(seed = 42) ?(admission = Httpd.no_admission) ?ttl ~tenants ~mean_gap
    ~total ~workers ~transport () =
  (* One extra core: the wire-side arrival pump. *)
  assemble ~seed ~cores:(workers + 1) ~conns:tenants
    ~requests_per_conn:default_requests_per_conn ~admission ~workers ~transport
    (Loadgen.Open { mean_gap; total; ttl; keys = tenant_keys ~seed ~tenants })

(* ---- the one run loop ---- *)

(* Resumable, for the quantum scheduler: [start_run] arms the load
   generator, [advance] drives a bounded slice of virtual time, and the
   elapsed figure is computed when the workload drains. *)
type session = { s_start : int; s_run : Machine.run; s_step : core:int -> Machine.step }

let start_run t =
  Machine.sync_cores t.o_machine;
  let start = Cpu.cycles (Machine.core t.o_machine 0) in
  Loadgen.start t.o_ol ~at:(start + 500);
  let step ~core =
    if core < t.o_workers then Httpd.step t.o_httpd ~core
    else Loadgen.step t.o_ol ~now:(Cpu.cycles (Machine.core t.o_machine core))
  in
  let cores = List.init (if t.o_pump then t.o_workers + 1 else t.o_workers) Fun.id in
  { s_start = start; s_run = Machine.start_run t.o_machine ~cores; s_step = step }

let advance t s ~until =
  match Machine.run_until t.o_machine s.s_run ~step:s.s_step ~until with
  | `Paused -> `Paused
  | `Done ->
    let elapsed = ref 1 in
    for core = 0 to t.o_workers - 1 do
      let c = Cpu.cycles (Machine.core t.o_machine core) - s.s_start in
      if c > !elapsed then elapsed := c
    done;
    t.o_elapsed <- !elapsed;
    `Done

let run t =
  let s = start_run t in
  while advance t s ~until:max_int = `Paused do
    ()
  done

let run_open = run

let throughput t =
  Costs.ops_per_sec ~ops:(Loadgen.responses t.o_ol) ~cycles:(max 1 t.o_elapsed)

let elapsed t = t.o_elapsed
let loadgen t = t.o_ol
let httpd t = t.o_httpd
let nic t = t.o_nic
let kernel t = t.o_kernel
let subkernel t = t.o_sb
let mesh t = t.o_mesh
let sky t = t.o_sky
let fs t = Fs_tier.fs t.o_tier
let worker_procs t = t.o_worker_procs
