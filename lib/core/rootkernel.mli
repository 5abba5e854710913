(** The Rootkernel: SkyBridge's tiny hypervisor (§4.1).

    Booted *by* the Subkernel (self-virtualization, CloudVisor-style): it
    reserves a small slice of physical memory for itself, builds a base
    EPT that identity-maps everything else with 1 GiB huge pages, creates
    a per-core VMCS and downgrades every vCPU to non-root mode. The
    configuration lets the guest handle external interrupts and
    privileged instructions directly, so in steady state {e no VM exits
    occur at all} (Table 5). The only retained exit handlers are CPUID,
    VMCALL (the Subkernel interface) and EPT violations. *)

type t = {
  kernel : Sky_ukernel.Kernel.t;
  base_ept : Sky_mmu.Ept.t;
  vmcses : Sky_mmu.Vmcs.t array;  (** one per core *)
  reserved_bytes : int;
  vpid : bool;
}

exception Fatal_ept_violation of int  (** guest-physical address *)

val boot :
  ?vpid:bool -> ?huge_ept:bool -> Sky_ukernel.Kernel.t -> t
(** Self-virtualize the machine under the given Subkernel. Reserves
    8 MiB (the paper reserves 100 MiB on a 16 GiB box — the same ratio)
    and flips every vCPU into non-root mode with the
    base EPT installed in EPTP slot 0. *)

val total_vm_exits : t -> int
val exits_of : t -> Sky_mmu.Vmcs.exit_reason -> int

val handle_cpuid : t -> core:int -> unit
(** A guest CPUID: exits to the Rootkernel, which emulates and resumes. *)

val handle_ept_violation : t -> core:int -> gpa:int -> 'a
(** Records the exit and raises {!Fatal_ept_violation} — under the base
    EPT's full mapping a violation means a guest bug or an attack. *)

val new_process_ept : t -> Sky_ukernel.Proc.t -> Sky_mmu.Ept.t
(** Shallow clone of the base EPT with the process's identity page
    mapped at {!Sky_ukernel.Layout.identity_gpa} (§4.2). *)

val bind_ept :
  t ->
  client:Sky_ukernel.Proc.t ->
  server:Sky_ukernel.Proc.t ->
  Sky_mmu.Ept.t
(** The §4.3 binding: clone the base EPT and remap the GPA of the
    client's CR3 frame to the HPA of the server's CR3 frame, and the
    identity GPA to the server's identity frame. After VMFUNC to this
    EPT the hardware transparently walks the server's page table. *)

val install_eptp_list : t -> core:int -> int list -> unit
(** VMCALL service used by the Subkernel on context switch (§4.2). *)

val current_identity : t -> core:int -> int
(** Read the identity page through the core's *current* EPT — how the
    Subkernel solves process misidentification (§4.2). Returns the pid
    of the process whose address space is live, even mid-direct-call. *)
