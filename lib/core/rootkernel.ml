open Sky_mem
open Sky_sim
open Sky_mmu
open Sky_ukernel

let log_src = Logs.Src.create "skybridge.rootkernel" ~doc:"SkyBridge Rootkernel"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  kernel : Kernel.t;
  base_ept : Ept.t;
  vmcses : Vmcs.t array;
  reserved_bytes : int;
  vpid : bool;
}

exception Fatal_ept_violation of int

(* A VM exit + handler + VM entry; in the ballpark of a measured
   hypercall on Skylake. *)
let vmcall_cost = 1200
let cpuid_exit_cost = 1500

let reserved_mib = 8 (* the paper reserves 100 MiB of 16 GiB: the same ratio *)

let boot ?(vpid = true) ?(huge_ept = true) kernel =
  let machine = kernel.Kernel.machine in
  let mem = Kernel.mem kernel and alloc = Kernel.alloc kernel in
  (* Reserve the Rootkernel's own memory at the top of the physical
     space so the Subkernel cannot touch it through the base EPT. *)
  let total_frames = Phys_mem.frames mem in
  let reserved_frames = reserved_mib * 256 in
  Frame_alloc.reserve alloc
    ~first_frame:(total_frames - reserved_frames)
    ~count:reserved_frames;
  (* Base EPT: identity map all guest-visible memory with 1 GiB pages.
     (The reserved tail is inside the last huge page; real hardware would
     carve it out with smaller pages — the isolation property is tested
     at the allocator level here, and what matters for the experiments is
     the huge-page walk length.) *)
  let base_ept = Ept.create alloc in
  if huge_ept then begin
    let gib = (Phys_mem.size_bytes mem + (1 lsl 30) - 1) lsr 30 in
    Ept.map_identity_1g base_ept ~mem ~alloc ~gib
  end
  else
    (* Ablation: a commodity-hypervisor-style 4 KiB EPT — longer nested
       walks, hundreds of EPT pages. *)
    Ept.map_identity_4k base_ept ~mem ~alloc
      ~mib:(Phys_mem.size_bytes mem lsr 20);
  let n = Machine.n_cores machine in
  let vmcses = Array.init n (fun _ -> Vmcs.create ~vpid ()) in
  (* Downgrade every vCPU to non-root mode, EPTP slot 0 = base EPT. *)
  Array.iteri
    (fun i vmcs ->
      Vmcs.install_list vmcs [ Ept.root_pa base_ept ];
      Vcpu.enter_non_root kernel.Kernel.vcpus.(i) vmcs)
    vmcses;
  Log.info (fun m ->
      m "self-virtualized: %d cores, %d MiB reserved, %s base EPT, vpid=%b" n
        reserved_mib
        (if huge_ept then "1GiB-page" else "4KiB-page")
        vpid);
  {
    kernel;
    base_ept;
    vmcses;
    reserved_bytes = reserved_frames * Phys_mem.frame_size;
    vpid;
  }

let total_vm_exits t =
  Array.fold_left (fun acc v -> acc + Vmcs.total_exits v) 0 t.vmcses

let exits_of t reason =
  Array.fold_left (fun acc v -> acc + Vmcs.exits v reason) 0 t.vmcses

let exit_to_root t ~core reason cost =
  let cpu = Kernel.cpu t.kernel ~core in
  Log.debug (fun m -> m "VM exit on core %d: %s" core (Vmcs.exit_reason_name reason));
  Vmcs.record_exit t.vmcses.(core) reason;
  Pmu.count (Cpu.pmu cpu) Pmu.Vm_exit;
  Cpu.charge cpu cost

(* The span and its name are built only when tracing is on. *)
let record t ~core reason cost =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"vmexit"
      ("vmexit." ^ Vmcs.exit_reason_name reason)
      (fun () -> exit_to_root t ~core reason cost)
  else exit_to_root t ~core reason cost

let handle_cpuid t ~core = record t ~core Vmcs.Exit_cpuid cpuid_exit_cost

let handle_ept_violation t ~core ~gpa =
  record t ~core Vmcs.Exit_ept_violation vmcall_cost;
  raise (Fatal_ept_violation gpa)

let vmcall t ~core f =
  record t ~core Vmcs.Exit_vmcall vmcall_cost;
  f ()

(* Permissions for the non-identity mappings SkyBridge installs on top of
   the base EPT (EPT reading: bit 1 write, bit 2 execute). The identity
   page is read-only data; the remapped CR3 frame is a page table the
   guest walker reads and the guest kernel writes; neither may be
   executable — the W^X auditor ([ept.wx]) rejects any remapped leaf that
   is writable+executable. *)
let ept_ro = { Sky_mmu.Pte.absent with Sky_mmu.Pte.present = true }
let ept_rw = { ept_ro with Sky_mmu.Pte.writable = true }

let new_process_ept t proc =
  let mem = Kernel.mem t.kernel and alloc = Kernel.alloc t.kernel in
  let ept = Ept.clone_shallow t.base_ept ~mem ~alloc in
  Ept.map_4k_flags ept ~mem ~alloc ~gpa:Layout.identity_gpa
    ~hpa:proc.Proc.identity_frame ~flags:ept_ro;
  ept

let bind_ept t ~client ~server =
  let mem = Kernel.mem t.kernel and alloc = Kernel.alloc t.kernel in
  let ept = Ept.clone_shallow t.base_ept ~mem ~alloc in
  Ept.map_4k_flags ept ~mem ~alloc ~gpa:(Proc.cr3 client)
    ~hpa:(Proc.cr3 server) ~flags:ept_rw;
  Ept.map_4k_flags ept ~mem ~alloc ~gpa:Layout.identity_gpa
    ~hpa:server.Proc.identity_frame ~flags:ept_ro;
  ept

let install_eptp_list t ~core eptps =
  vmcall t ~core (fun () -> Vmcs.install_list t.vmcses.(core) eptps)

let current_identity t ~core =
  let mem = Kernel.mem t.kernel in
  let root_pa = Vmcs.current_eptp t.vmcses.(core) in
  match Ept.walk ~mem ~root_pa ~gpa:Layout.identity_gpa with
  | Ok { Ept.hpa; _ } -> Int64.to_int (Phys_mem.read_u64 mem hpa)
  | Error (Ept.Ept_not_present gpa) -> handle_ept_violation t ~core ~gpa
