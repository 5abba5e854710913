(** Virtual CPU: a hardware core plus its architectural translation state.

    Wraps a {!Sky_sim.Cpu} with the registers the MMU cares about (CR3,
    PCID, CPL) and, once the machine has been self-virtualized by the
    Rootkernel, a {!Vmcs}. Before virtualization the vCPU runs "on bare
    metal": guest-physical addresses are host-physical addresses. *)

type mode = User | Kernel

type t = {
  cpu : Sky_sim.Cpu.t;
  mutable cr3 : int;  (** guest-physical address of the PML4 *)
  mutable pcid : int;
  mutable mode : mode;
  mutable vmcs : Vmcs.t option;  (** [Some _] once running in non-root mode *)
  mutable pcid_enabled : bool;
      (** When false (the default for the baseline microkernels, matching
          the TLB pollution measured in Table 1), a CR3 write flushes the
          TLBs. When true, entries are tagged and survive. *)
  mutable pkru : int;
      (** Protection-key rights register (32 bits: AD/WD pair per key).
          0 = every key accessible; only the MPK isolation backend writes
          it (via {!Wrpkru.execute}), and it never interacts with the
          TLBs. *)
}

let create ?(pcid_enabled = false) cpu =
  { cpu; cr3 = 0; pcid = 0; mode = Kernel; vmcs = None; pcid_enabled;
    pkru = 0 }

let cpu t = t.cpu
let virtualized t = t.vmcs <> None

let vmcs_exn t =
  match t.vmcs with
  | Some v -> v
  | None -> invalid_arg "Vcpu: not virtualized"

let enter_non_root t vmcs = t.vmcs <- Some vmcs

(* The TLB ASID tag: composes PCID with the current EPTP *value* (its
   root frame number) so that — as with VPID+EPTP tagging on real
   hardware — neither a PCID-tagged CR3 write nor a VMFUNC EPTP switch
   needs a flush. Tagging by EPTP value rather than list index matters:
   EPTP-list slots are LRU-recycled and re-pointed by the kernel layer,
   so an index tag could match a stale translation after a slot is
   reused for a different EPT. The value tag could only be recycled if
   an EPT root frame were freed, and no EPT frame is ever freed. *)
let asid t =
  let eptp_part =
    match t.vmcs with
    | Some v when v.Vmcs.vpid_enabled ->
      ((Vmcs.current_eptp v lsr 12) + 1) lsl 16
    | _ -> 0
  in
  eptp_part lor t.pcid

let load_cr3 t ~core ~cr3 ~pcid =
  Sky_sim.Cpu.charge t.cpu Sky_sim.Costs.cr3_write;
  Sky_sim.Pmu.count (Sky_sim.Cpu.pmu t.cpu) Sky_sim.Pmu.Cr3_write;
  t.cr3 <- cr3;
  t.pcid <- (if t.pcid_enabled then pcid else 0);
  if not t.pcid_enabled then begin
    Sky_trace.Trace.instant ~core ~cat:"ctx" "tlb.flush";
    (* An untagged CR3 write flushes everything derived from the guest
       linear address space: leaf TLBs and paging-structure caches. *)
    Sky_sim.Cpu.flush_guest_translation t.cpu
  end

(* Every context switch and every filtered-syscall crossing writes CR3:
   the span closure is built only when tracing is on. *)
let write_cr3 t ~cr3 ~pcid =
  let core = Sky_sim.Cpu.id t.cpu in
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"ctx" "cr3_write" (fun () ->
        load_cr3 t ~core ~cr3 ~pcid)
  else load_cr3 t ~core ~cr3 ~pcid

(* INVLPG: invalidate one page's leaf-TLB entries under the current
   ASID, and (as on hardware, which drops paging-structure-cache
   entries regardless of PCID) the covering PSC entries for every ASID. *)
let invlpg t ~va =
  let core = Sky_sim.Cpu.id t.cpu in
  Sky_trace.Trace.instant ~core ~cat:"ctx" "invlpg";
  Sky_sim.Cpu.charge t.cpu Sky_sim.Costs.invlpg;
  let asid = asid t in
  let vpn = va lsr 12 in
  Sky_sim.Tlb.flush_page (Sky_sim.Cpu.itlb t.cpu) ~asid ~vpn;
  Sky_sim.Tlb.flush_page (Sky_sim.Cpu.dtlb t.cpu) ~asid ~vpn;
  Sky_sim.Psc.flush_key (Sky_sim.Cpu.psc_pde t.cpu) ~key:(va lsr 21);
  Sky_sim.Psc.flush_key (Sky_sim.Cpu.psc_pdpte t.cpu) ~key:(va lsr 30);
  Sky_sim.Psc.flush_key (Sky_sim.Cpu.psc_pml4e t.cpu) ~key:(va lsr 39)

let set_mode t m = t.mode <- m
