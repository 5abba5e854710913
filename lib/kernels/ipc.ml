open Sky_sim
open Sky_ukernel

type handler = core:int -> bytes -> bytes

type endpoint = {
  id : int;
  server : Proc.t;
  handler : handler;
  mutable cores : int list;
  stats : Breakdown.t;
  mutable calls : int;
  root_cap : Capability.t;
}

type long_ipc = Shared_copy | Temp_map

type t = {
  kernel : Kernel.t;
  mutable endpoints : endpoint list;
  mutable next_id : int;
  ipc_buffers : (int, int) Hashtbl.t;  (** pid -> buffer VA *)
  cap_registry : Capability.registry;
  enforce_caps : bool;
  long_ipc : long_ipc;
  roundtrip_name : string;  (** span names, built once per kernel *)
  cross_name : string;
  fast_leg_name : string;
  slow_leg_name : string;
}

exception Message_too_large of { len : int; limit : int }

let register_msg_limit = 32
let ipc_buffer_size = 8192

let variant_slug = function
  | Config.Sel4 -> "sel4"
  | Config.Fiasco -> "fiasco"
  | Config.Zircon -> "zircon"
  | Config.Linux -> "linux"

(* Trace-span name of one IPC leg: the per-kernel phase the paper names
   in §6.3 (seL4 fast/slowpath, Fiasco fastpath-with-DRQ, Zircon's
   channel path, Linux's UDS path). *)
let leg_name variant ~fast =
  match (variant, fast) with
  | Config.Sel4, true -> "sel4.fastpath"
  | Config.Sel4, false -> "sel4.slowpath"
  | Config.Fiasco, true -> "fiasco.fastpath.drq"
  | Config.Fiasco, false -> "fiasco.slowpath"
  | Config.Zircon, _ -> "zircon.channel"
  | Config.Linux, _ -> "linux.uds"

let create ?(enforce_caps = false) ?(long_ipc = Shared_copy) kernel =
  let variant = kernel.Kernel.config.Config.variant in
  {
    kernel;
    endpoints = [];
    next_id = 1;
    ipc_buffers = Hashtbl.create 8;
    cap_registry = Capability.create_registry ();
    enforce_caps;
    long_ipc;
    roundtrip_name = variant_slug variant ^ ".roundtrip";
    cross_name = variant_slug variant ^ ".cross";
    fast_leg_name = leg_name variant ~fast:true;
    slow_leg_name = leg_name variant ~fast:false;
  }

let caps t = t.cap_registry

let register t server ?(cores = []) handler =
  let id = t.next_id in
  let ep =
    {
      id;
      server;
      handler;
      cores;
      stats = Breakdown.create ();
      calls = 0;
      root_cap =
        Capability.mint t.cap_registry ~owner:server.Proc.pid ~target:id
          ~rights:Capability.all_rights ~badge:0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.endpoints <- ep :: t.endpoints;
  ep

let grant_send t ep client =
  Capability.derive t.cap_registry ep.root_cap ~new_owner:client.Proc.pid
    ~badge:client.Proc.pid Capability.send_only

let buffer_va t proc =
  match Hashtbl.find t.ipc_buffers proc.Proc.pid with
  | va -> va
  | exception Not_found ->
    let va = Kernel.map_anon t.kernel proc ipc_buffer_size in
    Hashtbl.replace t.ipc_buffers proc.Proc.pid va;
    va

let costs t = Costs_table.for_variant t.kernel.Kernel.config.Config.variant

(* Copy [data] from the current address space's IPC buffer area into the
   kernel's view and/or the peer buffer, charging real memory accesses.
   [vcpu] must have the owning process mapped. *)
let guest_write t ~core ~proc data =
  let va = buffer_va t proc in
  Kernel.context_switch t.kernel ~core proc;
  Sky_mmu.Translate.write_bytes
    (Kernel.vcpu t.kernel ~core)
    (Kernel.mem t.kernel) ~va data

(* The receiver reading its buffer: every line translated and charged
   as a data read. The bytes themselves are the message the handler
   already holds, so none are copied out. *)
let guest_read t ~core ~proc len =
  let va = buffer_va t proc in
  Kernel.context_switch t.kernel ~core proc;
  Sky_mmu.Translate.touch
    (Kernel.vcpu t.kernel ~core)
    (Kernel.mem t.kernel) Sky_mmu.Translate.data_read ~va ~len

(* Kernel-buffer bounce for Zircon's unoptimized double copy: the second
   pass streams through a kernel heap buffer. *)
let kernel_bounce t ~core len =
  let c = Kernel.cpu t.kernel ~core in
  let base = t.kernel.Kernel.kernel_data_pa + 65536 in
  let line = 64 in
  for l = 0 to ((max len 1) - 1) / line do
    (* write then read back *)
    Memsys.access c Memsys.Data (base + (l * line));
    Memsys.access c Memsys.Data (base + (l * line))
  done

(* Temporary mapping (L4's long-IPC optimization, SS8.1): instead of
   bouncing through a shared buffer, the kernel maps the sender's pages
   into the receiver's space for the duration of the transfer. Costs one
   PTE install + one INVLPG per page at teardown. *)
let temp_map_page_cost = 150

(* Transfer [data] from [src] process to [dst] process on [core]:
   register transfer when small, through memory otherwise. The default
   shared-buffer path performs the SS8.1 "two memory copies" (sender ->
   shared, shared -> receiver); [Temp_map] replaces the second copy with
   per-page mapping work. A reply larger than the IPC buffer moves
   nothing: the kernel refuses it and {!call} reports it. Returns the
   measured copy cycles. *)
let copy_message t ~core ~src ~dst data =
  let len = Bytes.length data in
  if len <= register_msg_limit || len > ipc_buffer_size then 0
  else begin
    let c = Kernel.cpu t.kernel ~core in
    let before = Cpu.cycles c in
    (* Copy 1: the sender's data reaches kernel-visible memory. *)
    guest_write t ~core ~proc:src data;
    if (costs t).Costs_table.double_copy then kernel_bounce t ~core len;
    (match t.long_ipc with
    | Shared_copy ->
      (* Copy 2: receiver-private copy out of the shared buffer. *)
      guest_read t ~core ~proc:dst len;
      guest_write t ~core ~proc:dst data
    | Temp_map ->
      (* Map sender pages into the receiver, single read pass, unmap +
         INVLPG. *)
      let pages = (len + 4095) / 4096 in
      Cpu.charge c (pages * temp_map_page_cost);
      guest_read t ~core ~proc:dst len);
    Cpu.cycles c - before
  end

(* Every leg transfers, a register-sized message included: the copy
   span's closure is built only when tracing is on. *)
let transfer t ~core ~src ~dst data =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"copy" "ipc.copy" (fun () ->
        copy_message t ~core ~src ~dst data)
  else copy_message t ~core ~src ~dst data

(* The scheduler's share of a slowpath leg, in its own span when
   tracing is on. *)
let schedule c ~core cycles =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"sched" "schedule" (fun () -> Cpu.charge c cycles)
  else Cpu.charge c cycles

(* One direction of an IPC on a single core: kernel entry, logic, message
   transfer, switch to [target], kernel exit. *)
let run_leg t ~core ~to_proc ~fast ~cross ~from_proc data (bd : Breakdown.t) =
  let k = t.kernel in
  let cost = costs t in
  let c = Kernel.cpu k ~core in
  Kernel.kernel_entry k ~core;
  (* Software path: logic + optional scheduler. *)
  let logic = if fast then cost.Costs_table.fast_logic else cost.Costs_table.slow_logic in
  Cpu.charge c logic;
  bd.Breakdown.other <- bd.Breakdown.other + logic;
  Kernel.touch_kernel_text k ~core
    ~bytes:(if fast then cost.Costs_table.text_fast else cost.Costs_table.text_slow)
    ~off:4096;
  Kernel.touch_kernel_data k ~core ~bytes:cost.Costs_table.data_touch ~off:0;
  if not fast then begin
    schedule c ~core cost.Costs_table.sched;
    bd.Breakdown.sched <- bd.Breakdown.sched + cost.Costs_table.sched;
    Kernel.touch_kernel_text k ~core ~bytes:2048 ~off:65536
  end;
  if cross then begin
    Cpu.charge c cost.Costs_table.cross_extra;
    bd.Breakdown.other <- bd.Breakdown.other + cost.Costs_table.cross_extra
  end;
  (* Message transfer (also performs the context switch to the target as
     a side effect of addressing both buffers). *)
  bd.Breakdown.copy <-
    bd.Breakdown.copy + transfer t ~core ~src:from_proc ~dst:to_proc data;
  (* Address-space switch to the target (no-op if transfer already
     switched). *)
  let ctx0 = Cpu.cycles c in
  Kernel.context_switch k ~core to_proc;
  bd.Breakdown.ctx <- bd.Breakdown.ctx + (Cpu.cycles c - ctx0);
  Kernel.kernel_exit k ~core;
  bd.Breakdown.syscall <-
    bd.Breakdown.syscall + Costs.syscall + (2 * Costs.swapgs) + Costs.sysret;
  if t.kernel.Kernel.config.Config.kpti then
    (* kernel_entry/exit charged two extra CR3 writes; attribute them to
       the context-switch category. *)
    bd.Breakdown.ctx <- bd.Breakdown.ctx + (2 * Costs.cr3_write)

let leg t ~core ~from_proc ~to_proc ~fast ~cross data bd =
  (* Fault site "ipc.leg": the kernel-mediated transfer dies mid-leg
     (fires only inside a mediated-call scope, e.g. the slowpath
     fallback of a revoked SkyBridge binding). *)
  if Sky_faults.Fault.is_enabled () then
    Sky_faults.Fault.inject ~core "ipc.leg";
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"other"
      (if fast then t.fast_leg_name else t.slow_leg_name)
      (fun () -> run_leg t ~core ~to_proc ~fast ~cross ~from_proc data bd)
  else run_leg t ~core ~to_proc ~fast ~cross ~from_proc data bd

let run_handler ep ~core msg =
  (* Handler executes in the server's address space in user mode. *)
  ep.handler ~core msg

(* Local call: request leg, handler, reply leg, all on [core]. *)
let local_call t ~core ~client ep ~fast msg =
  let bd = ep.stats in
  leg t ~core ~from_proc:client ~to_proc:ep.server ~fast ~cross:false msg bd;
  let reply = run_handler ep ~core msg in
  leg t ~core ~from_proc:ep.server ~to_proc:client ~fast ~cross:false reply bd;
  reply

(* Cross-core call: the client traps, IPIs the server core, the server
   core picks the request up, runs the handler, and IPIs back. The
   client's elapsed time covers the whole round trip; the server core's
   clock also advances, which is what serializes concurrent callers of a
   single-threaded server. *)
let run_cross t ~core ~client ep ~server_core msg =
  let k = t.kernel in
  let bd = ep.stats in
  let cost = costs t in
  let ccpu = Kernel.cpu k ~core and scpu = Kernel.cpu k ~core:server_core in
  (* The server core's TLB-refill cycles belong to this call too; the
     client core's delta is taken by [call] around the whole dispatch. *)
  let swalk0 = Pmu.read (Cpu.pmu scpu) Pmu.Walk_cycles in
  (* Client side: trap, queue the message, kick the server core. *)
  Kernel.kernel_entry k ~core;
  Cpu.charge ccpu cost.Costs_table.slow_logic;
  bd.Breakdown.other <- bd.Breakdown.other + cost.Costs_table.slow_logic;
  Kernel.touch_kernel_text k ~core ~bytes:cost.Costs_table.text_slow ~off:4096;
  Kernel.send_ipi k ~from_core:core ~to_core:server_core;
  bd.Breakdown.ipi <- bd.Breakdown.ipi + Costs.ipi;
  (* Server core: interrupt entry, schedule the server thread, copy the
     message in, run the handler. *)
  Kernel.kernel_entry k ~core:server_core;
  schedule scpu ~core:server_core (cost.Costs_table.sched + cost.Costs_table.cross_extra);
  bd.Breakdown.sched <- bd.Breakdown.sched + cost.Costs_table.sched;
  bd.Breakdown.other <- bd.Breakdown.other + cost.Costs_table.cross_extra;
  let copy1 = transfer t ~core:server_core ~src:client ~dst:ep.server msg in
  let ctx1 = Cpu.cycles scpu in
  Kernel.context_switch k ~core:server_core ep.server;
  let ctx1 = Cpu.cycles scpu - ctx1 in
  Kernel.kernel_exit k ~core:server_core;
  let reply = run_handler ep ~core:server_core msg in
  (* Server replies: trap, copy out, IPI the client back. *)
  Kernel.kernel_entry k ~core:server_core;
  let copy2 = transfer t ~core:server_core ~src:ep.server ~dst:client reply in
  Kernel.send_ipi k ~from_core:server_core ~to_core:core;
  bd.Breakdown.ipi <- bd.Breakdown.ipi + Costs.ipi;
  Kernel.kernel_exit k ~core:server_core;
  (* Client resumes once the reply IPI lands. *)
  Cpu.advance_to ccpu (Cpu.cycles scpu);
  let ctx2 = Cpu.cycles ccpu in
  Kernel.context_switch k ~core client;
  let ctx2 = Cpu.cycles ccpu - ctx2 in
  Kernel.kernel_exit k ~core;
  bd.Breakdown.copy <- bd.Breakdown.copy + copy1 + copy2;
  bd.Breakdown.ctx <- bd.Breakdown.ctx + ctx1 + ctx2;
  bd.Breakdown.syscall <-
    bd.Breakdown.syscall + (2 * (Costs.syscall + (2 * Costs.swapgs) + Costs.sysret));
  bd.Breakdown.walk <-
    bd.Breakdown.walk + (Pmu.read (Cpu.pmu scpu) Pmu.Walk_cycles - swalk0);
  reply

let cross_call t ~core ~client ep ~server_core msg =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"other" t.cross_name (fun () ->
        run_cross t ~core ~client ep ~server_core msg)
  else run_cross t ~core ~client ep ~server_core msg

(* The dispatch: a call finds a local server thread unless the endpoint
   pins its threads to other cores (ST-Server), in which case the first
   pinned core serves it. *)
let dispatch t ~core ~client ep msg =
  match ep.cores with
  | server_core :: _ when not (List.mem core ep.cores) ->
    cross_call t ~core ~client ep ~server_core msg
  | _ ->
    let fast =
      (costs t).Costs_table.has_fastpath && Bytes.length msg <= register_msg_limit
    in
    local_call t ~core ~client ep ~fast msg

(* Attribute the calling core's TLB-refill cycles during this call to
   the breakdown's walk column (cross-cutting; see {!Breakdown}). *)
let roundtrip t ~core ~client ep msg =
  let cpmu = Cpu.pmu (Kernel.cpu t.kernel ~core) in
  let walk0 = Pmu.read cpmu Pmu.Walk_cycles in
  let reply = dispatch t ~core ~client ep msg in
  ep.stats.Breakdown.walk <-
    ep.stats.Breakdown.walk + (Pmu.read cpmu Pmu.Walk_cycles - walk0);
  reply

let call t ~core ~client ep msg =
  (* A message larger than the IPC buffer is refused before the kernel
     is entered: nothing is charged or copied. *)
  if Bytes.length msg > ipc_buffer_size then
    raise (Message_too_large { len = Bytes.length msg; limit = ipc_buffer_size });
  (* Capability enforcement (part of the fastpath's 98-cycle logic). *)
  if
    t.enforce_caps
    && not
         (Capability.check t.cap_registry ~pid:client.Proc.pid ~target:ep.id
            ~need:{ Capability.send = true; recv = false; grant = false })
  then
    raise
      (Capability.Cap_denied
         { pid = client.Proc.pid; target = ep.id; reason = "no send capability" });
  ep.calls <- ep.calls + 1;
  (* The roundtrip span feeds the per-kernel latency histogram
     ("<kernel>.roundtrip") read by `skybench trace`. *)
  let reply =
    if Sky_trace.Trace.is_enabled () then
      Sky_trace.Trace.span ~core ~cat:"ipc" t.roundtrip_name (fun () ->
          roundtrip t ~core ~client ep msg)
    else roundtrip t ~core ~client ep msg
  in
  (* An oversized reply crossed back without its payload (the kernel
     refused the copy): the client is home, in user mode. *)
  if Bytes.length reply > ipc_buffer_size then
    raise (Message_too_large { len = Bytes.length reply; limit = ipc_buffer_size });
  reply
