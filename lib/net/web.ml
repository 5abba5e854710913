(** The whole web-serving stack, assembled end to end:

    load generator → NIC (RSS over [workers] queues) → skyhttpd workers
    (one per core) → KV store + xv6fs/RAM-disk backends, with the
    worker→backend hop carried either by mediated SkyBridge direct calls
    ([Skybridge]) or by the baseline kernel's synchronous IPC
    ([Ipc] — the slowpath variant, MT-server so every call at least
    takes the kernel's local path).

    Worker [i] is pinned to core [i]; backend handlers run on the
    calling worker's core in the server's address space, exactly as a
    direct server call (or local IPC) executes them. All worker calls go
    through {!Sky_core.Retry.call} on the SkyBridge path, so backend
    crashes injected by the chaos experiment recover transparently.

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
open Sky_blockdev
open Sky_xv6fs
module Kv_server = Sky_kvstore.Kv_server
module Kv_wire = Sky_kvstore.Kv_wire
module Subkernel = Sky_core.Subkernel
module Retry = Sky_core.Retry
module Ipc = Sky_kernels.Ipc
module Mesh = Sky_mesh.Mesh

type transport = Ipc_slowpath | Skybridge

let transport_name = function
  | Ipc_slowpath -> "slowpath-IPC"
  | Skybridge -> "SkyBridge"

let default_conns = 120
let default_requests_per_conn = 8
let rtt = 2_000 (* wire round trip: client is "one switch away" *)
let n_files = 4
let file_bytes = 192
let backend_text = 6 * 1024 (* KV server instruction working set *)
let disk_blocks = 4096
let keys_per_tenant = 4

type t = {
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
  mutable o_elapsed : int;  (** busiest worker core's cycles across {!run} *)
}

type open_t = t

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

(* ---- typed worker bindings over either transport ---- *)

let fs_read_of iface ~core ~name =
  match iface.Fs_iface.lookup ~core name with
  | None -> None
  | Some inum ->
    let len = iface.Fs_iface.size ~core inum in
    Some (iface.Fs_iface.read ~core ~inum ~off:0 ~len)

let binding_of_calls ~call_kv ~call_fs ~revoke ~rebind =
  let iface = Fs_iface.over_call call_fs in
  {
    Httpd.kv_put =
      (fun ~core ~key ~value ->
        String.equal
          (Bytes.unsafe_to_string (call_kv ~core (Kv_wire.insert_msg ~key ~value)))
          "ok");
    kv_get =
      (fun ~core ~key ->
        let r = call_kv ~core (Kv_wire.query_msg ~key) in
        if Bytes.length r = 0 then None else Some r);
    fs_read = (fun ~core ~name -> fs_read_of iface ~core ~name);
    kv_batch = (fun ~core ops -> Kv_wire.batch_replies (call_kv ~core (Kv_wire.batch_msg ops)));
    revoke;
    rebind;
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

let assemble ~seed ~cores ~conns ~requests_per_conn ~admission ~workers ~transport
    arrivals =
  if workers < 1 || workers > cores then
    invalid_arg "Web.build: workers must be in [1, cores]";
  let pump = match arrivals with Loadgen.Open _ -> true | Loadgen.Closed -> false in
  let budget = if pump then Some (Retry.budget ~seed ()) else None in
  let machine = Machine.create ~cores ~mem_mib:128 () in
  let kernel = Kernel.create ~config:(Config.default Config.Sel4) machine in
  (* Backends: KV store + xv6fs over a RAM disk. *)
  let kv = Kv_server.create machine in
  let kv_h = kv_backend kernel kv in
  let ramdisk = Ramdisk.create machine ~nblocks:disk_blocks in
  let raw = Disk.direct kernel ramdisk in
  Fs.mkfs kernel raw ~core:0 ~size:disk_blocks ~ninodes:64 ();
  let kv_proc = Kernel.spawn kernel ~name:"kvstore" in
  let fs_proc = Kernel.spawn kernel ~name:"xv6fs" in
  let disk_proc = Kernel.spawn kernel ~name:"blockdev" in
  let worker_procs = Array.init workers (fun _ -> Kernel.spawn kernel ~name:"httpd") in
  (* Set to the httpd's live deadline once it exists: the SkyBridge
     bindings propagate the remaining request budget as a backend call
     timeout. *)
  let deadline = ref (fun ~core:_ -> None) in
  let sb, mesh, fs_cell, bind =
    match transport with
    | Skybridge ->
      let sb = Subkernel.init ~seed kernel in
      (* URI addressing through the mesh: servers register under their
         scheme, workers are granted capabilities and call by URI — no
         flat sid plumbing reaches the worker bindings. *)
      let mesh = Mesh.create ~seed ?retry_budget:budget sb in
      let disk_sid =
        Subkernel.register_server sb disk_proc ~connection_count:cores
          (Disk.handler kernel ramdisk)
      in
      Mesh.register mesh ~core:0 ~uri:"blk://" ~server_id:disk_sid;
      ignore (Mesh.grant mesh ~core:0 ~client:fs_proc "blk://");
      let sdisk = Disk.over_skybridge sb ~client:fs_proc ~server_id:disk_sid in
      let fs_cell = ref (Fs.mount kernel sdisk ~core:0) in
      (* Handler indirection so a crash-recovery remount swaps the Fs.t
         without re-registering the server (same trick as the SQLite
         stack). *)
      let fs_handler ~core msg = Fs_iface.server_handler !fs_cell ~core msg in
      let fs_sid =
        Subkernel.register_server sb fs_proc ~connection_count:cores
          ~deps:[ disk_sid ] fs_handler
      in
      let kv_sid = Subkernel.register_server sb kv_proc ~connection_count:cores kv_h in
      Mesh.register mesh ~core:0 ~uri:"fs://" ~server_id:fs_sid;
      Mesh.register mesh ~core:0 ~uri:"kv://" ~server_id:kv_sid;
      let remount () =
        let rec go n =
          try fs_cell := Fs.mount kernel sdisk ~core:0 with
          | Subkernel.Server_crashed { server_id } when n > 0 ->
            Subkernel.restart_server sb ~server_id;
            go (n - 1)
        in
        go 3
      in
      let bind w_proc =
        ignore (Mesh.grant mesh ~core:0 ~client:w_proc "kv://");
        ignore (Mesh.grant mesh ~core:0 ~client:w_proc "fs://");
        (* The routed call: deadline-aware (the live request's remaining
           budget becomes the backend timeout; an exhausted budget sheds
           as 503 via [Httpd.Expired]) and denial-aware (a revoked
           capability bounces the request to a privileged peer via
           [Httpd.Denied] instead of killing the worker). *)
        let routed ?on_crash uri ~core msg =
          let timeout =
            match !deadline ~core with
            | None -> None
            | Some d ->
              let now = Cpu.cycles (Kernel.cpu kernel ~core) in
              if d <= now then raise Httpd.Expired else Some (d - now)
          in
          match Mesh.call_exn mesh ~core ~client:w_proc ?on_crash ?timeout uri msg with
          | r -> r
          | exception Mesh.Denied _ -> raise Httpd.Denied
          | exception Retry.Gave_up _ when timeout <> None -> raise Httpd.Expired
        in
        binding_of_calls
          ~call_kv:(routed "kv://")
          ~call_fs:(routed ~on_crash:(fun _ -> remount ()) "fs://")
          ~revoke:(fun ~core -> Mesh.suspend_client mesh ~core w_proc)
          ~rebind:(fun ~core ->
            ignore core;
            Mesh.resume_client mesh w_proc)
      in
      (Some sb, Some mesh, fs_cell, bind)
    | Ipc_slowpath ->
      let ipc = Ipc.create kernel in
      let disk_ep = Ipc.register ipc disk_proc ~cores:[] (Disk.handler kernel ramdisk) in
      let fs = Fs.mount kernel (Disk.over_ipc ipc ~client:fs_proc disk_ep) ~core:0 in
      let fs_ep = Ipc.register ipc fs_proc ~cores:[] (Fs_iface.server_handler fs) in
      let kv_ep = Ipc.register ipc kv_proc ~cores:[] kv_h in
      let bind w_proc =
        binding_of_calls
          ~call_kv:(fun ~core msg -> Ipc.call ipc ~core ~client:w_proc kv_ep msg)
          ~call_fs:(fun ~core msg -> Ipc.call ipc ~core ~client:w_proc fs_ep msg)
          ~revoke:(fun ~core -> ignore core)
          ~rebind:(fun ~core -> ignore core)
      in
      (None, None, ref fs, bind)
  in
  let files = provision_files !fs_cell ~seed in
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
      ~workers:(Array.map (fun p -> (p, bind p)) worker_procs)
      ~queue_done:(fun ~queue -> Loadgen.queue_done lg ~queue)
  in
  deadline := (fun ~core -> Httpd.current_deadline httpd ~core);
  {
    o_machine = machine;
    o_kernel = kernel;
    o_workers = workers;
    o_pump = pump;
    o_nic = nic;
    o_httpd = httpd;
    o_ol = lg;
    o_sb = sb;
    o_mesh = mesh;
    o_budget = budget;
    o_worker_procs = worker_procs;
    o_fs_cell = fs_cell;
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
let retry_stats t = Option.map Mesh.retry_stats t.o_mesh
let retry_budget t = t.o_budget
let fs t = !(t.o_fs_cell)
let worker_procs t = t.o_worker_procs
