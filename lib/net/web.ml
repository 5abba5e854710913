(** The whole web-serving stack, assembled end to end:

    load generator → NIC (RSS over [workers] queues) → skyhttpd workers
    (one per core) → KV store + xv6fs/RAM-disk backends, with the
    worker→backend hop carried either by mediated SkyBridge direct calls
    ([Skybridge]) or by the configured baseline kernel's synchronous IPC
    ([Ipc] — the slowpath variant, MT-server so every call at least
    takes the kernel's local path).

    Worker [i] is pinned to core [i]; backend handlers run on the
    calling worker's core in the server's address space, exactly as a
    direct server call (or local IPC) executes them. All worker calls go
    through {!Sky_core.Retry.call} on the SkyBridge path, so backend
    crashes injected by the chaos experiment recover transparently.

    Two front ends share the assembly:

    - {!build} — the classic closed-loop stack ({!Loadgen});
    - {!build_open} — the {b overload} stack: an {!Openloop}
      Poisson-arrival generator driven by a dedicated wire-side pump
      core, admission control on the server ({!Httpd.admission}),
      request TTLs propagated as backend call timeouts, an optional
      {!Sky_core.Retry.budget} bounding recovery retries, and a
      per-tenant keyspace provisioned server-side so load shedding can
      never masquerade as corruption. *)

open Sky_sim
open Sky_ukernel
open Sky_blockdev
open Sky_xv6fs
module Kv_server = Sky_kvstore.Kv_server
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

type t = {
  machine : Machine.t;
  kernel : Kernel.t;
  transport : transport;
  workers : int;
  nic : Nic.t;
  httpd : Httpd.t;
  lg : Loadgen.t;
  sb : Subkernel.t option;
  mesh : Mesh.t option;
  rstats : Retry.stats option;
  fs_cell : Fs.t ref;
  kv : Kv_server.t;
  wprocs : Proc.t array;
  mutable elapsed : int;  (** busiest worker core's cycles across {!run} *)
}

(* ---- KV wire format (the store's own 'I'/'Q'/'B' protocol) ---- *)

let kv_insert_msg ~key ~value =
  let k = String.length key in
  let b = Bytes.create (4 + k + Bytes.length value) in
  Bytes.set b 0 'I';
  Bytes.set_uint16_le b 2 k;
  Bytes.blit_string key 0 b 4 k;
  Bytes.blit value 0 b (4 + k) (Bytes.length value);
  b

let kv_query_msg ~key =
  let k = String.length key in
  let b = Bytes.create (4 + k) in
  Bytes.set b 0 'Q';
  Bytes.set_uint16_le b 2 k;
  Bytes.blit_string key 0 b 4 k;
  b

(* 'B': [count:u16] then per op 'I'[klen:u16][vlen:u16]key value or
   'Q'[klen:u16]key — a whole request batch in one server crossing. The
   reply mirrors it: [count:u16] then 's' (stored), 'm' (miss) or
   'v'[len:u16]bytes per op, in order. *)
let kv_batch_msg ops =
  let size =
    List.fold_left
      (fun a op ->
        a
        +
        match op with
        | Httpd.Op_put (k, v) -> 5 + String.length k + Bytes.length v
        | Httpd.Op_get k -> 3 + String.length k)
      4 ops
  in
  let b = Bytes.create size in
  Bytes.set b 0 'B';
  Bytes.set b 1 '\000';
  Bytes.set_uint16_le b 2 (List.length ops);
  let off = ref 4 in
  List.iter
    (fun op ->
      match op with
      | Httpd.Op_put (k, v) ->
        Bytes.set b !off 'I';
        Bytes.set_uint16_le b (!off + 1) (String.length k);
        Bytes.set_uint16_le b (!off + 3) (Bytes.length v);
        Bytes.blit_string k 0 b (!off + 5) (String.length k);
        Bytes.blit v 0 b (!off + 5 + String.length k) (Bytes.length v);
        off := !off + 5 + String.length k + Bytes.length v
      | Httpd.Op_get k ->
        Bytes.set b !off 'Q';
        Bytes.set_uint16_le b (!off + 1) (String.length k);
        Bytes.blit_string k 0 b (!off + 3) (String.length k);
        off := !off + 3 + String.length k)
    ops;
  b

let kv_batch_replies resp =
  let count = Bytes.get_uint16_le resp 0 in
  let off = ref 2 in
  List.init count (fun _ ->
      match Bytes.get resp !off with
      | 's' ->
        incr off;
        Httpd.R_stored true
      | 'f' ->
        incr off;
        Httpd.R_stored false
      | 'm' ->
        incr off;
        Httpd.R_value None
      | 'v' ->
        let len = Bytes.get_uint16_le resp (!off + 1) in
        let v = Bytes.sub resp (!off + 3) len in
        off := !off + 3 + len;
        Httpd.R_value (Some v)
      | c -> invalid_arg (Printf.sprintf "web kv_batch_replies: tag %c" c))

(* The store works on the message's fields in place; a batch's reply is
   assembled in a reply buffer owned by this handler (one server
   process, one call at a time) and copied out once, so a crossing
   allocates only its reply. *)
let kv_handler kv kernel ~text_pa : Ipc.handler =
  let reply_buf = ref (Bytes.create 256) in
  let room n =
    if Bytes.length !reply_buf < n then
      reply_buf := Bytes.extend !reply_buf 0 (Int.max n (2 * Bytes.length !reply_buf))
  in
  fun ~core msg ->
    let cpu = Kernel.cpu kernel ~core in
    Memsys.touch_range_state_only cpu Memsys.Insn ~pa:text_pa ~len:backend_text;
    match Bytes.get msg 0 with
    | 'I' ->
      let klen = Bytes.get_uint16_le msg 2 in
      Kv_server.insert_sub kv cpu msg ~key_off:4 ~key_len:klen ~value_off:(4 + klen)
        ~value_len:(Bytes.length msg - 4 - klen);
      Bytes.of_string "ok"
    | 'Q' -> (
      match Kv_server.query_sub kv cpu msg ~key_off:4 ~key_len:(Bytes.get_uint16_le msg 2) with
      | Some v -> v
      | None -> Bytes.empty)
    | 'B' ->
      (* One crossing, many operations: the store pays per-op cache
         footprint as usual, but the SkyBridge/IPC transit is amortized. *)
      let count = Bytes.get_uint16_le msg 2 in
      room 2;
      Bytes.set_uint16_le !reply_buf 0 count;
      let rec ops i off out =
        if i = count then out
        else
          match Bytes.get msg off with
          | 'I' ->
            let klen = Bytes.get_uint16_le msg (off + 1) in
            let vlen = Bytes.get_uint16_le msg (off + 3) in
            Kv_server.insert_sub kv cpu msg ~key_off:(off + 5) ~key_len:klen
              ~value_off:(off + 5 + klen) ~value_len:vlen;
            room (out + 1);
            Bytes.set !reply_buf out 's';
            ops (i + 1) (off + 5 + klen + vlen) (out + 1)
          | 'Q' ->
            let klen = Bytes.get_uint16_le msg (off + 1) in
            room (out + 3 + Kv_server.max_kv);
            let vlen =
              Kv_server.query_into kv cpu msg ~key_off:(off + 3) ~key_len:klen
                ~dst:!reply_buf ~dst_off:(out + 3)
            in
            if vlen < 0 then begin
              Bytes.set !reply_buf out 'm';
              ops (i + 1) (off + 3 + klen) (out + 1)
            end
            else begin
              Bytes.set !reply_buf out 'v';
              Bytes.set_uint16_le !reply_buf (out + 1) vlen;
              ops (i + 1) (off + 3 + klen) (out + 3 + vlen)
            end
          | c -> invalid_arg (Printf.sprintf "web kv_handler: batch op %c" c)
      in
      Bytes.sub !reply_buf 0 (ops 0 4 2)
    | c -> invalid_arg (Printf.sprintf "web kv_handler: opcode %c" c)

(* Allocate the KV server's instruction working set and close the wire
   handler over it — shared with the composed mesh scenario, which runs
   two KV server generations over the same store. *)
let kv_backend kernel kv =
  let text_pa =
    Sky_mem.Frame_alloc.alloc_frames (Kernel.alloc kernel)
      ~count:((backend_text + 4095) / 4096)
  in
  kv_handler kv kernel ~text_pa

(* ---- typed worker bindings over either transport ---- *)

let fs_read_of iface ~core ~name =
  match iface.Fs_iface.lookup ~core name with
  | None -> None
  | Some inum ->
    let len = iface.Fs_iface.size ~core inum in
    Some (iface.Fs_iface.read ~core ~inum ~off:0 ~len)

let binding_of_calls ?(batch = false) ~call_kv ~call_fs ~revoke ~rebind () =
  let iface = Fs_iface.over_call call_fs in
  {
    Httpd.kv_put =
      (fun ~core ~key ~value ->
        String.equal (Bytes.unsafe_to_string (call_kv ~core (kv_insert_msg ~key ~value))) "ok");
    kv_get =
      (fun ~core ~key ->
        let r = call_kv ~core (kv_query_msg ~key) in
        if Bytes.length r = 0 then None else Some r);
    fs_read = (fun ~core ~name -> fs_read_of iface ~core ~name);
    kv_batch =
      (if batch then
         Some (fun ~core ops -> kv_batch_replies (call_kv ~core (kv_batch_msg ops)))
       else None);
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

(* Per-tenant warm keyspace for the open-loop generator: GETs under
   shedding read only these, so a shed PUT can never make a later read
   look corrupt. *)
let tenant_keys ~seed ~tenants ~keys_per_tenant =
  let rng = Rng.create ~seed:(seed lxor 0x7e4a47) in
  Array.init tenants (fun ti ->
      Array.init keys_per_tenant (fun ki ->
          (Printf.sprintf "t%d-p%d" ti ki, Workload.value_bytes rng (ti * 131) ki)))

(* ---- shared assembly: backends + transport + worker bindings ---- *)

type stack = {
  st_machine : Machine.t;
  st_kernel : Kernel.t;
  st_kv : Kv_server.t;
  st_fs_cell : Fs.t ref;
  st_sb : Subkernel.t option;
  st_mesh : Mesh.t option;
  st_rstats : Retry.stats option;
  st_worker_procs : Proc.t array;
  st_bind : batch:bool -> Proc.t -> Httpd.binding;
  st_deadline : (core:int -> int option) ref;
      (** set to the httpd's {!Httpd.current_deadline} once it exists;
          the SkyBridge bindings read it to propagate the remaining
          request budget as a backend call timeout *)
}

let assemble ~variant ~seed ~cores ~disk_blocks ?max_eptp ?max_bindings
    ?retry_budget ~workers ~transport () =
  if workers < 1 || workers > cores then
    invalid_arg "Web.build: workers must be in [1, cores]";
  let machine = Machine.create ~cores ~mem_mib:128 () in
  let kernel = Kernel.create ~config:(Config.default variant) machine in
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
  let deadline =
    ref (fun ~core ->
        ignore core;
        None)
  in
  let sb, mesh, rstats, fs_cell, bind =
    match transport with
    | Skybridge ->
      let sb = Subkernel.init ?max_eptp ?max_bindings ~seed kernel in
      (* URI addressing through the mesh: servers register under their
         scheme, workers are granted capabilities and call by URI — no
         flat sid plumbing reaches the worker bindings. *)
      let mesh = Mesh.create ~seed ?retry_budget sb in
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
      let rstats = Mesh.retry_stats mesh in
      let remount () =
        let rec go n =
          try fs_cell := Fs.mount kernel sdisk ~core:0 with
          | Subkernel.Server_crashed { server_id } when n > 0 ->
            Subkernel.restart_server sb ~server_id;
            go (n - 1)
        in
        go 3
      in
      let bind ~batch w_proc =
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
        binding_of_calls ~batch
          ~call_kv:(routed "kv://")
          ~call_fs:(routed ~on_crash:(fun _ -> remount ()) "fs://")
          ~revoke:(fun ~core -> Mesh.suspend_client mesh ~core w_proc)
          ~rebind:(fun ~core ->
            ignore core;
            Mesh.resume_client mesh w_proc)
          ()
      in
      (Some sb, Some mesh, Some rstats, fs_cell, bind)
    | Ipc_slowpath ->
      let ipc = Ipc.create kernel in
      let disk_ep =
        Ipc.register ipc disk_proc ~cores:[] (Disk.handler kernel ramdisk)
      in
      let fs = Fs.mount kernel (Disk.over_ipc ipc ~client:fs_proc disk_ep) ~core:0 in
      let fs_ep = Ipc.register ipc fs_proc ~cores:[] (Fs_iface.server_handler fs) in
      let kv_ep = Ipc.register ipc kv_proc ~cores:[] kv_h in
      let bind ~batch w_proc =
        let call_kv ~core msg = Ipc.call ipc ~core ~client:w_proc kv_ep msg in
        let call_fs ~core msg = Ipc.call ipc ~core ~client:w_proc fs_ep msg in
        binding_of_calls ~batch ~call_kv ~call_fs
          ~revoke:(fun ~core -> ignore core)
          ~rebind:(fun ~core -> ignore core)
          ()
      in
      (None, None, None, ref fs, bind)
  in
  {
    st_machine = machine;
    st_kernel = kernel;
    st_kv = kv;
    st_fs_cell = fs_cell;
    st_sb = sb;
    st_mesh = mesh;
    st_rstats = rstats;
    st_worker_procs = worker_procs;
    st_bind = bind;
    st_deadline = deadline;
  }

(* ---- closed-loop front end ---- *)

let build ?(variant = Config.Sel4) ?(seed = 42) ?(cores = 8)
    ?(conns = default_conns) ?(requests_per_conn = default_requests_per_conn)
    ?(mix = Loadgen.default_mix) ?(disk_blocks = 4096) ~workers ~transport () =
  let st = assemble ~variant ~seed ~cores ~disk_blocks ~workers ~transport () in
  let files = provision_files !(st.st_fs_cell) ~seed in
  let nic = Nic.create st.st_kernel ~queues:workers in
  let lg = Loadgen.create nic ~seed ~mix ~conns ~requests_per_conn ~rtt ~files in
  let httpd =
    Httpd.create st.st_kernel nic
      ~preload:(Array.to_list (Array.map fst files))
      ~workers:(Array.map (fun p -> (p, st.st_bind ~batch:false p)) st.st_worker_procs)
      ~queue_done:(fun ~queue -> Loadgen.queue_done lg ~queue)
  in
  st.st_deadline := (fun ~core -> Httpd.current_deadline httpd ~core);
  {
    machine = st.st_machine;
    kernel = st.st_kernel;
    transport;
    workers;
    nic;
    httpd;
    lg;
    sb = st.st_sb;
    mesh = st.st_mesh;
    rstats = st.st_rstats;
    fs_cell = st.st_fs_cell;
    kv = st.st_kv;
    wprocs = st.st_worker_procs;
    elapsed = 0;
  }

(* Resumable run, for the quantum scheduler: [start_run] arms the load
   generator, [advance] drives a bounded slice of virtual time, and the
   elapsed figure is computed when the workload drains. *)
type session = { s_start : int; s_httpd : Httpd.session }

let start_run t =
  Machine.sync_cores t.machine;
  let start = Cpu.cycles (Machine.core t.machine 0) in
  Loadgen.start t.lg ~at:(start + 500);
  { s_start = start; s_httpd = Httpd.start t.httpd }

let advance t s ~until =
  match Httpd.advance t.httpd s.s_httpd ~until with
  | `Paused -> `Paused
  | `Done ->
    let elapsed = ref 1 in
    for core = 0 to t.workers - 1 do
      let c = Cpu.cycles (Machine.core t.machine core) - s.s_start in
      if c > !elapsed then elapsed := c
    done;
    t.elapsed <- !elapsed;
    `Done

let run t =
  let s = start_run t in
  match advance t s ~until:max_int with
  | `Done -> ()
  | `Paused -> assert false (* clocks cannot reach max_int *)

let throughput t =
  Costs.ops_per_sec ~ops:(Loadgen.responses t.lg) ~cycles:(max 1 t.elapsed)

let elapsed t = t.elapsed
let loadgen t = t.lg
let httpd t = t.httpd
let nic t = t.nic
let kernel t = t.kernel
let subkernel t = t.sb
let mesh t = t.mesh
let retry_stats t = t.rstats
let fs t = !(t.fs_cell)
let worker_procs t = t.wprocs

(* ---- open-loop (overload) front end ---- *)

type open_t = {
  o_machine : Machine.t;
  o_kernel : Kernel.t;
  o_transport : transport;
  o_workers : int;
  o_nic : Nic.t;
  o_httpd : Httpd.t;
  o_ol : Openloop.t;
  o_sb : Subkernel.t option;
  o_mesh : Mesh.t option;
  o_rstats : Retry.stats option;
  o_budget : Retry.budget option;
  o_worker_procs : Proc.t array;
  o_fs_cell : Fs.t ref;
  mutable o_elapsed : int;
}

let build_open ?(variant = Config.Sel4) ?(seed = 42)
    ?(requests_per_conn = default_requests_per_conn)
    ?(mix = Loadgen.default_mix) ?(disk_blocks = 4096) ?max_eptp ?max_bindings
    ?(retry_budget = true) ?(admission = Httpd.no_admission) ?ttl
    ?(keys_per_tenant = 4) ~tenants ~mean_gap ~total ~workers ~transport () =
  (* One extra core: the wire-side arrival pump. *)
  let cores = workers + 1 in
  let budget = if retry_budget then Some (Retry.budget ~seed ()) else None in
  let st =
    assemble ~variant ~seed ~cores ~disk_blocks ?max_eptp ?max_bindings
      ?retry_budget:budget ~workers ~transport ()
  in
  let files = provision_files !(st.st_fs_cell) ~seed in
  (* Warm the per-tenant keyspace server-side before any traffic: the
     open-loop read path touches only provisioned keys. *)
  let keys = tenant_keys ~seed ~tenants ~keys_per_tenant in
  let cpu0 = Kernel.cpu st.st_kernel ~core:0 in
  Array.iter
    (Array.iter (fun (k, v) ->
         Kv_server.insert st.st_kv cpu0 ~key:(Bytes.of_string k) ~value:v))
    keys;
  let nic = Nic.create st.st_kernel ~queues:workers in
  let ol =
    Openloop.create nic ~seed ~mix ~tenants ~requests_per_conn ~mean_gap ~total
      ~rtt ?ttl ~files ~keys ()
  in
  let httpd =
    Httpd.create st.st_kernel nic
      ~preload:(Array.to_list (Array.map fst files))
      ~admission
      ~wire_hint:(fun () -> Openloop.next_event ol)
      ~workers:
        (Array.map
           (fun p -> (p, st.st_bind ~batch:(admission.Httpd.a_batch_max > 1) p))
           st.st_worker_procs)
      ~queue_done:(fun ~queue -> Openloop.queue_done ol ~queue)
  in
  st.st_deadline := (fun ~core -> Httpd.current_deadline httpd ~core);
  {
    o_machine = st.st_machine;
    o_kernel = st.st_kernel;
    o_transport = transport;
    o_workers = workers;
    o_nic = nic;
    o_httpd = httpd;
    o_ol = ol;
    o_sb = st.st_sb;
    o_mesh = st.st_mesh;
    o_rstats = st.st_rstats;
    o_budget = budget;
    o_worker_procs = st.st_worker_procs;
    o_fs_cell = st.st_fs_cell;
    o_elapsed = 0;
  }

let run_open o =
  Machine.sync_cores o.o_machine;
  let start = Cpu.cycles (Machine.core o.o_machine 0) in
  Openloop.start o.o_ol ~at:(start + 500);
  Machine.interleave o.o_machine
    ~cores:(List.init (o.o_workers + 1) Fun.id)
    ~step:(fun ~core ->
      if core < o.o_workers then Httpd.step o.o_httpd ~core
      else Openloop.step o.o_ol ~now:(Cpu.cycles (Machine.core o.o_machine core)));
  let elapsed = ref 1 in
  for core = 0 to o.o_workers - 1 do
    let c = Cpu.cycles (Machine.core o.o_machine core) - start in
    if c > !elapsed then elapsed := c
  done;
  o.o_elapsed <- !elapsed
