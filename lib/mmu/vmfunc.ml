(** The VMFUNC instruction (EPTP switching, function 0).

    Executable from non-root mode at any privilege level — including
    ring 3, which is the property SkyBridge builds on. With VPID enabled
    it does not flush the TLB and costs 134 cycles (Table 2). An invalid
    function number or EPTP index causes a VM exit, which the Rootkernel
    turns into a fault for the offending process. *)

exception Invalid_vmfunc of { func : int; index : int }

let switch vcpu cpu ~core ~func ~index =
  Sky_sim.Cpu.charge cpu Sky_sim.Costs.vmfunc;
  Sky_sim.Pmu.count (Sky_sim.Cpu.pmu cpu) Sky_sim.Pmu.Vmfunc_exec;
  let vmcs = Vcpu.vmcs_exn vcpu in
  if
    func <> 0
    || index < 0
    || index >= Vmcs.eptp_list_size
    || Vmcs.eptp_at vmcs ~index = 0
  then begin
    Vmcs.record_exit vmcs Vmcs.Exit_invalid_vmfunc;
    Sky_sim.Pmu.count (Sky_sim.Cpu.pmu cpu) Sky_sim.Pmu.Vm_exit;
    Sky_trace.Trace.instant ~core ~cat:"vmexit" "vmexit.invalid_vmfunc";
    raise (Invalid_vmfunc { func; index })
  end;
  vmcs.Vmcs.current_index <- index;
  if not vmcs.Vmcs.vpid_enabled then begin
    (* Without VPID the EPTP switch invalidates combined mappings:
       leaf TLBs and paging-structure caches alike. The EPT walk cache
       is keyed by EPT root and correct across the switch. *)
    Sky_trace.Trace.instant ~core ~cat:"vmfunc" "tlb.flush";
    Sky_sim.Cpu.flush_guest_translation cpu
  end

(* Every crossing runs this twice: the span closure is built only when
   tracing is on. *)
let execute vcpu ~func ~index =
  let cpu = Vcpu.cpu vcpu in
  let core = Sky_sim.Cpu.id cpu in
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"vmfunc" "vmfunc" (fun () ->
        switch vcpu cpu ~core ~func ~index)
  else switch vcpu cpu ~core ~func ~index
