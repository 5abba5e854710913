(** The microkernel core: processes, per-core vCPUs, context switches,
    kernel entry/exit, and the hooks SkyBridge latches onto.

    This module is the common substrate shared by the three kernel
    personalities in [lib/kernels]; it owns everything that is the same
    across seL4, Fiasco.OC and Zircon — process/address-space management
    and the mode-switch machinery — while the personalities own their IPC
    paths. *)

type t = {
  machine : Sky_sim.Machine.t;
  config : Config.t;
  vcpus : Sky_mmu.Vcpu.t array;  (** one per core *)
  mutable procs : Proc.t list;
  mutable next_pid : int;
  kernel_text_pa : int;  (** base PA of kernel text (footprint touches) *)
  kernel_data_pa : int;
  mutable running : Proc.t option array;  (** per core *)
  mutable on_context_switch : (t -> core:int -> Proc.t -> unit) list;
      (** SkyBridge installs the next process's EPTP list here (§4.2). *)
  mutable on_spawn : (t -> Proc.t -> unit) list;
}

val create : ?config:Config.t -> Sky_sim.Machine.t -> t
(** Reserves kernel text/data physical ranges and creates one vCPU per
    core ([pcid] per the config). *)

val mem : t -> Sky_mem.Phys_mem.t
val alloc : t -> Sky_mem.Frame_alloc.t
val vcpu : t -> core:int -> Sky_mmu.Vcpu.t
val cpu : t -> core:int -> Sky_sim.Cpu.t

val spawn : t -> name:string -> Proc.t
(** New process with an empty page table and fresh identity frame;
    triggers [on_spawn] hooks. *)

val map_anon : t -> Proc.t -> ?va:int -> ?flags:Sky_mmu.Pte.flags -> int -> int
(** [map_anon t p len]: allocate frames and map them at [va] (heap-bumped
    when omitted); returns the VA. Default flags are user read/write with
    NX set — anonymous memory is data, and the W^X audit rejects any
    writable+executable leaf. *)

val map_frames :
  t -> Proc.t -> va:int -> pa:int -> len:int -> flags:Sky_mmu.Pte.flags -> unit
(** Map existing frames (shared memory). *)

val map_code : t -> Proc.t -> bytes -> int
(** Copy [bytes] into fresh frames mapped read-execute at
    {!Layout.code_va}; records the region in [Proc.code]. *)

val load_image : t -> Proc.t -> Sky_isa.Binfmt.image -> unit
(** Load a {!Sky_isa.Binfmt} executable: map each section with its kind's
    protection (text RX, rodata R/NX, data RW/NX) and record every
    executable section in [Proc.code] so SkyBridge registration scans
    all of them — and only them. *)

val proc_code_bytes : t -> Proc.t -> (int * bytes) list
(** Current contents of each executable region (read back from simulated
    memory — the rewriter patches these in place). *)

val write_code : t -> Proc.t -> va:int -> bytes -> unit
(** Overwrite part of an executable region (binary rewriting). Respects
    nothing — the kernel may write anywhere; W^X applies to user mode. *)

val context_switch : t -> core:int -> Proc.t -> unit
(** Install the process's CR3 on the core's vCPU (charging the CR3 write,
    flushing TLBs unless PCID) and fire the context-switch hooks. No-op
    if the process is already current. *)

val kernel_entry : t -> core:int -> unit
(** SYSCALL + SWAPGS (+ KPTI CR3 write), kernel mode, touch kernel entry
    text (state-only). *)

val kernel_exit : t -> core:int -> unit
(** SWAPGS + SYSRET (+ KPTI CR3 write back), user mode. *)

val touch_kernel_text : t -> core:int -> bytes:int -> off:int -> unit
(** Model executing [bytes] of kernel text starting at offset [off]:
    updates cache state without charging (the measured path constants
    already include warm execution). *)

val touch_kernel_data : t -> core:int -> bytes:int -> off:int -> unit

val send_ipi : t -> from_core:int -> to_core:int -> unit
(** Charge {!Sky_sim.Costs.ipi} on the sender and make the target core's
    clock catch up to the interrupt delivery time. *)

val user_compute : t -> core:int -> cycles:int -> unit
(** Burn user-mode cycles (application logic whose memory behaviour we
    don't model in detail). *)
