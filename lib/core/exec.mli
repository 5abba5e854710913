(** Guest user-code execution: the MMU-backed machine of
    {!Sky_isa.Semantics}, the one instruction semantics the reference
    interpreter also runs.

    Fetches instruction bytes {e through the simulated MMU} (i-TLB,
    nested page walks, i-cache), checking execute permission over every
    byte of each instruction, and executes them with real register and
    guest-memory semantics; a [Vmfunc] instruction performs the actual
    EPTP switch on the vCPU, and a [Wrpkru] faults unless ECX = EDX = 0. This closes the loop on the reproduction's
    central artifact: the trampoline page the Subkernel maps is not just
    scanned — it can be {e run}, and running it really moves the core
    into the server's address space (tested in test/test_core.ml).

    The executor is deliberately small: straight-line code, calls/returns
    and the instruction subset of {!Sky_isa.Insn}. [Syscall] stops
    execution with [`Syscall] (the caller decides what the kernel does);
    returning with the sentinel link address stops with [`Returned]. *)

type stop =
  [ `Returned  (** RET popped the sentinel return address *)
  | `Syscall  (** SYSCALL executed; RIP is past it *)
  | `Fell_off  (** execution left the executable mapping *) ]

exception Exec_fault of string

type regs = int64 array
(** 16 slots indexed by {!Sky_isa.Reg.encoding}. *)

val return_sentinel : int
(** Pre-pushed link address whose RET ends execution. *)

val run :
  Sky_ukernel.Kernel.t ->
  core:int ->
  entry:int ->
  ?regs:regs ->
  unit ->
  stop * regs
(** Execute from virtual address [entry] in whatever address space is
    live on [core] (user mode). The initial RSP must point at a mapped
    stack whose top holds {!return_sentinel} unless [regs] provides one —
    when [regs] is omitted, a fresh 4 KiB stack is mapped in the current
    process with the sentinel pre-pushed.

    @raise Exec_fault on undecodable/unsupported instructions, on a
    WRPKRU with ECX or EDX nonzero, and after 100,000 steps.
    @raise Sky_mmu.Translate.Page_fault on unmapped/forbidden access,
    including instruction fetches from NX pages (W^X enforced for real),
    even when only an instruction's tail lies on the NX or unmapped page.
    @raise Sky_mmu.Vmfunc.Invalid_vmfunc as the hardware would. *)
