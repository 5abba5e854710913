(** The WRPKRU instruction (protection-key rights switch).

    Executable at any privilege level, like VMFUNC — which is what makes
    protection keys a viable user-level domain-switch mechanism (ERIM).
    Unlike VMFUNC it switches {e nothing} in the translation machinery:
    no EPTP change, no CR3 write, no TLB or paging-structure-cache
    interaction of any kind. The whole architectural effect is the PKRU
    register update, at {!Sky_sim.Costs.wrpkru} cycles. The hardware
    requires ECX = EDX = 0 at execution; that operand discipline is a
    property of the call-gate code and is checked statically by
    {!Sky_analysis.Tramp_check} in its MPK flavor, not dynamically
    here. *)

let switch vcpu cpu ~pkru =
  Sky_sim.Cpu.charge cpu Sky_sim.Costs.wrpkru;
  Sky_sim.Pmu.count (Sky_sim.Cpu.pmu cpu) Sky_sim.Pmu.Wrpkru_exec;
  vcpu.Vcpu.pkru <- pkru land 0xffff_ffff

(* Every MPK crossing runs this twice: the span closure is built only
   when tracing is on. *)
let execute vcpu ~pkru =
  let cpu = Vcpu.cpu vcpu in
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core:(Sky_sim.Cpu.id cpu) ~cat:"vmfunc" "wrpkru"
      (fun () -> switch vcpu cpu ~pkru)
  else switch vcpu cpu ~pkru
