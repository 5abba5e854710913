(** Address translation: TLB → (nested) page walk.

    This is the hardware walker. On a TLB miss it performs the guest
    4-level walk; when the vCPU is virtualized, every guest table address
    is itself translated through the current EPT (real nested paging —
    up to 4 × (EPT walk + entry read) + final EPT walk ≈ 24 memory
    accesses, §4.1), and all those accesses are charged through the cache
    hierarchy. The CR3-remapping trick of SkyBridge (§4.3) works here with
    no special case: the walk translates the CR3 {e GPA} through the EPT,
    so a remapped EPT transparently switches which page table the walk
    reads. *)

exception Page_fault of Page_table.fault
exception Ept_violation of Ept.fault

type access = { kind : Sky_sim.Memsys.kind; write : bool }

val data_read : access
val data_write : access
val fetch : access

val translate : Vcpu.t -> Sky_mem.Phys_mem.t -> access -> va:int -> int
(** [translate vcpu mem acc ~va] returns the host-physical address.
    Charges TLB/walk costs on the vCPU's core. Raises {!Page_fault} on a
    guest-PT fault (not-present, protection, user access to supervisor
    page) and {!Ept_violation} on an EPT fault (a VM exit in real
    hardware; the Rootkernel handles it). *)

val read_u64 : Vcpu.t -> Sky_mem.Phys_mem.t -> va:int -> int64
val write_u64 : Vcpu.t -> Sky_mem.Phys_mem.t -> va:int -> int64 -> unit

val read_bytes : Vcpu.t -> Sky_mem.Phys_mem.t -> va:int -> len:int -> bytes
(** Bulk read through translation, charging one cached access per 64-byte
    line. May span pages. *)

val write_bytes : Vcpu.t -> Sky_mem.Phys_mem.t -> va:int -> bytes -> unit

val touch : Vcpu.t -> Sky_mem.Phys_mem.t -> access -> va:int -> len:int -> unit
(** Access every line of a virtual range without moving data (models
    executing code or scanning a buffer). *)
