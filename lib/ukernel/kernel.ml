open Sky_mem
open Sky_sim
open Sky_mmu

type t = {
  machine : Machine.t;
  config : Config.t;
  vcpus : Vcpu.t array;
  mutable procs : Proc.t list;
  mutable next_pid : int;
  kernel_text_pa : int;
  kernel_data_pa : int;
  mutable running : Proc.t option array;
  mutable on_context_switch : (t -> core:int -> Proc.t -> unit) list;
  mutable on_spawn : (t -> Proc.t -> unit) list;
}

let kernel_text_size = 512 * 1024
let kernel_data_size = 256 * 1024

let create ?config machine =
  let config =
    match config with Some c -> c | None -> Config.default Config.Sel4
  in
  let alloc = machine.Machine.alloc in
  let text = Frame_alloc.alloc_frames alloc ~count:(kernel_text_size / 4096) in
  let data = Frame_alloc.alloc_frames alloc ~count:(kernel_data_size / 4096) in
  let n = Machine.n_cores machine in
  {
    machine;
    config;
    vcpus =
      Array.init n (fun i ->
          Vcpu.create ~pcid_enabled:config.Config.pcid (Machine.core machine i));
    procs = [];
    next_pid = 1;
    kernel_text_pa = text;
    kernel_data_pa = data;
    running = Array.make n None;
    on_context_switch = [];
    on_spawn = [];
  }

let mem t = t.machine.Machine.mem
let alloc t = t.machine.Machine.alloc
let vcpu t ~core = t.vcpus.(core)
let cpu t ~core = Vcpu.cpu t.vcpus.(core)

let spawn t ~name =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let page_table = Page_table.create (alloc t) in
  let p = Proc.create ~pid ~name ~page_table in
  (* Identity page (§4.2): records which process this address space
     belongs to; SkyBridge maps it at the same GPA in every EPT. *)
  let frame = Frame_alloc.alloc_frame (alloc t) in
  Phys_mem.write_u64 (mem t) frame (Int64.of_int pid);
  p.Proc.identity_frame <- frame;
  t.procs <- p :: t.procs;
  List.iter (fun f -> f t p) t.on_spawn;
  p

let find_proc t ~pid =
  match List.find_opt (fun p -> p.Proc.pid = pid) t.procs with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Kernel.find_proc: no pid %d" pid)

let map_frames t p ~va ~pa ~len ~flags =
  Page_table.map_range p.Proc.page_table ~mem:(mem t) ~alloc:(alloc t) ~va ~pa
    ~len ~flags

(* Anonymous memory (stacks, heaps, buffers) is never executed: the NX
   default keeps every writable mapping non-executable, which the W^X
   auditor (lib/analysis) asserts over whole address spaces. Callers that
   really need W+X must say so explicitly. *)
let map_anon t p ?va ?(flags = { Pte.urw with Pte.nx = true }) len =
  let len = max len 1 in
  let pages = (len + 4095) / 4096 in
  let va = match va with Some v -> v | None -> Proc.bump_heap p len in
  let pa = Frame_alloc.alloc_frames (alloc t) ~count:pages in
  map_frames t p ~va ~pa ~len ~flags;
  va

let map_code t p code =
  let va = Layout.code_va in
  let pages = (Bytes.length code + 4095) / 4096 in
  let pa = Frame_alloc.alloc_frames (alloc t) ~count:pages in
  Phys_mem.write_bytes (mem t) pa code;
  map_frames t p ~va ~pa ~len:(Bytes.length code) ~flags:Pte.urx;
  p.Proc.code <- (va, Bytes.copy code) :: p.Proc.code;
  va

let load_image t p (img : Sky_isa.Binfmt.image) =
  Sky_isa.Binfmt.validate img;
  List.iter
    (fun s ->
      let len = Bytes.length s.Sky_isa.Binfmt.body in
      if len > 0 then begin
        let pages = (len + 4095) / 4096 in
        let pa = Frame_alloc.alloc_frames (alloc t) ~count:pages in
        Phys_mem.write_bytes (mem t) pa s.Sky_isa.Binfmt.body;
        let flags =
          match s.Sky_isa.Binfmt.kind with
          | Sky_isa.Binfmt.Text -> Pte.urx
          | Sky_isa.Binfmt.Rodata -> Pte.ur
          | Sky_isa.Binfmt.Data -> { Pte.urw with Pte.nx = true }
        in
        map_frames t p ~va:s.Sky_isa.Binfmt.vaddr ~pa ~len ~flags;
        if s.Sky_isa.Binfmt.kind = Sky_isa.Binfmt.Text then
          p.Proc.code <-
            (s.Sky_isa.Binfmt.vaddr, Bytes.copy s.Sky_isa.Binfmt.body) :: p.Proc.code
      end)
    img.Sky_isa.Binfmt.sections

(* Locate the frame backing [va] in the process's page table, bypassing
   the vCPU (kernel-mode software walk). *)
let resolve t p va =
  match Page_table.walk ~mem:(mem t) ~root_pa:(Proc.cr3 p) ~va with
  | Ok r -> r.Page_table.pa
  | Error _ -> invalid_arg (Printf.sprintf "Kernel.resolve: %s va %#x unmapped" p.Proc.name va)

let proc_code_bytes t p =
  List.map
    (fun (va, original) ->
      let len = Bytes.length original in
      let buf = Bytes.create len in
      let rec go off =
        if off < len then begin
          let chunk = min (4096 - ((va + off) land 0xfff)) (len - off) in
          let pa = resolve t p (va + off) in
          Phys_mem.blit_to (mem t) ~src_pa:pa ~dst:buf ~dst_off:off ~len:chunk;
          go (off + chunk)
        end
      in
      go 0;
      (va, buf))
    p.Proc.code

let write_code t p ~va code =
  let len = Bytes.length code in
  let rec go off =
    if off < len then begin
      let chunk = min (4096 - ((va + off) land 0xfff)) (len - off) in
      let pa = resolve t p (va + off) in
      Phys_mem.blit_from (mem t) ~src:code ~src_off:off ~dst_pa:pa ~len:chunk;
      go (off + chunk)
    end
  in
  go 0

(* Every kernel-mediated IPC leg switches address spaces: the hooks run
   from a toplevel loop and the span closure is built only when tracing
   is on. *)
let rec run_hooks t ~core to_proc = function
  | [] -> ()
  | f :: rest ->
    f t ~core to_proc;
    run_hooks t ~core to_proc rest

let switch_to t ~core to_proc =
  Vcpu.write_cr3 t.vcpus.(core) ~cr3:(Proc.cr3 to_proc) ~pcid:to_proc.Proc.pid;
  t.running.(core) <- to_proc.Proc.self;
  run_hooks t ~core to_proc t.on_context_switch

let context_switch t ~core to_proc =
  let same =
    match t.running.(core) with
    | Some p -> p.Proc.pid = to_proc.Proc.pid
    | None -> false
  in
  if not same then
    if Sky_trace.Trace.is_enabled () then
      Sky_trace.Trace.span ~core ~cat:"ctx" "context_switch" (fun () ->
          switch_to t ~core to_proc)
    else switch_to t ~core to_proc

let touch_kernel_text t ~core ~bytes ~off =
  Memsys.touch_range_state_only (cpu t ~core) Memsys.Insn
    ~pa:(t.kernel_text_pa + (off mod kernel_text_size)) ~len:bytes

let touch_kernel_data t ~core ~bytes ~off =
  Memsys.touch_range_state_only (cpu t ~core) Memsys.Data
    ~pa:(t.kernel_data_pa + (off mod kernel_data_size)) ~len:bytes

(* KPTI: the kernel runs on its own page table, so entry and exit each
   write CR3 (§2.1.1: "an IPC usually involves two address space
   switches"). We model the kernel's page table as the process table —
   only the cost and TLB behaviour matter. *)
let kpti_switch t ~core =
  let v = t.vcpus.(core) in
  Vcpu.write_cr3 v ~cr3:v.Vcpu.cr3 ~pcid:v.Vcpu.pcid

(* Entry, exit and IPI sit on every IPC and notification path: build
   the trace span's closure only when tracing is on. *)
let enter_kernel t ~core =
  let c = cpu t ~core in
  Cpu.charge c (Costs.syscall + Costs.swapgs);
  Pmu.count (Cpu.pmu c) Pmu.Syscall_exec;
  Vcpu.set_mode t.vcpus.(core) Vcpu.Kernel;
  if t.config.Config.kpti then kpti_switch t ~core;
  touch_kernel_text t ~core ~bytes:512 ~off:0;
  touch_kernel_data t ~core ~bytes:256 ~off:0

let kernel_entry t ~core =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"syscall" "kernel_entry" (fun () ->
        enter_kernel t ~core)
  else enter_kernel t ~core

let leave_kernel t ~core =
  let c = cpu t ~core in
  Cpu.charge c (Costs.swapgs + Costs.sysret);
  if t.config.Config.kpti then kpti_switch t ~core;
  Vcpu.set_mode t.vcpus.(core) Vcpu.User

let kernel_exit t ~core =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"syscall" "kernel_exit" (fun () ->
        leave_kernel t ~core)
  else leave_kernel t ~core

let deliver_ipi t ~from_core ~to_core =
  let src = cpu t ~core:from_core in
  Cpu.charge src Costs.ipi;
  Pmu.count (Cpu.pmu src) Pmu.Ipi_sent;
  Sky_trace.Trace.instant ~core:to_core ~cat:"ipi" "ipi.delivered";
  (* Delivery: the target observes the interrupt no earlier than the
     sender's send time. *)
  Cpu.advance_to (cpu t ~core:to_core) (Cpu.cycles src)

let send_ipi t ~from_core ~to_core =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core:from_core ~cat:"ipi" "ipi" (fun () ->
        deliver_ipi t ~from_core ~to_core)
  else deliver_ipi t ~from_core ~to_core

let user_compute t ~core ~cycles = Cpu.charge (cpu t ~core) cycles
