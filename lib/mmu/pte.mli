(** 64-bit page-table / EPT entry encoding (x86-64 bit layout).

    Bit 0 present (EPT: readable), bit 1 writable, bit 2 user (EPT:
    executable), bit 7 PS (huge page), bit 63 NX; the frame number sits
    in bits 12..51. Shared by the guest page tables and the EPTs so a
    walker reads exactly what hardware would. *)

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  huge : bool;
  nx : bool;
}

val rw : flags
(** Supervisor read/write (kernel data). *)

val urw : flags
(** User read/write (heaps, stacks, buffers). *)

val urx : flags
(** User read/execute (code pages, the trampoline). *)

val ur : flags
(** User read-only, no-execute (the calling-key table). *)

val absent : flags

val encode : pa:int -> flags -> int64
(** Raises [Invalid_argument] if [pa] is not page-aligned. *)

val decode : int64 -> int * flags
(** Physical address and flags of an entry. *)

val is_present : int64 -> bool

val zero : int64
(** The not-present entry. *)

(** Allocation-free entry reads for the hardware walker. {!decode}
    returns a tuple and a record, and a {!Sky_mem.Phys_mem.read_u64}
    result is a boxed [int64] once it leaves [Phys_mem]; a packed entry
    is one immediate [int] holding the frame address and the flag bits,
    read straight out of simulated memory and tested against the masks
    below, so the bit layout stays in this module. *)
module Packed : sig
  val read : Sky_mem.Phys_mem.t -> int -> int
  (** [read mem pa] is the entry at [pa], packed. Raises exactly what
      {!Sky_mem.Phys_mem.read_u64} raises (range, alignment). *)

  val addr_mask : int
  (** [p land addr_mask] is the frame's physical address, as {!decode}
      returns it. *)

  val present_mask : int
  val writable_mask : int
  val user_mask : int
  val huge_mask : int
  val nx_mask : int
end
