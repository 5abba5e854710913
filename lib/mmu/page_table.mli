(** 4-level x86-64 guest page tables, stored in simulated physical memory.

    The table pages live in {!Sky_mem.Phys_mem} frames allocated from the
    machine's frame allocator, and every entry is a real 64-bit
    {!Pte}-encoded word, so walks read exactly what a hardware walker
    would. Guest page tables map 4 KiB pages only (processes); huge pages
    appear in the EPT ({!Ept}). *)

type t

type fault =
  | Not_present of int  (** faulting virtual address *)
  | Protection of int  (** write to read-only or user access to kernel *)

exception Page_fault of fault

val create : Sky_mem.Frame_alloc.t -> t
(** Allocate an empty PML4. *)

val root_pa : t -> int
(** Physical (= guest-physical under the identity base EPT) address of the
    PML4 frame — the process's CR3 value. *)

val map :
  t ->
  mem:Sky_mem.Phys_mem.t ->
  alloc:Sky_mem.Frame_alloc.t ->
  va:int ->
  pa:int ->
  flags:Pte.flags ->
  unit
(** Map one 4 KiB page. Intermediate levels are allocated on demand.
    Remapping an existing VA overwrites the leaf entry. *)

val map_range :
  t ->
  mem:Sky_mem.Phys_mem.t ->
  alloc:Sky_mem.Frame_alloc.t ->
  va:int ->
  pa:int ->
  len:int ->
  flags:Pte.flags ->
  unit

val unmap : t -> mem:Sky_mem.Phys_mem.t -> va:int -> unit
(** Clear the leaf entry for [va]; no-op if unmapped. *)

val protect :
  t -> mem:Sky_mem.Phys_mem.t -> va:int -> flags:Pte.flags -> unit
(** Change the flags of an existing mapping. Raises [Page_fault] if [va]
    is not mapped. *)

type walk_result = {
  pa : int;  (** translated physical address *)
  flags : Pte.flags;
  entries_read : int list;  (** PAs of the entries touched, root first *)
}

val walk :
  mem:Sky_mem.Phys_mem.t -> root_pa:int -> va:int -> (walk_result, fault) result
(** Pure software walk from an arbitrary root (used by the walker in
    {!Translate} in non-virtualized mode and by tests). Does not charge
    cycles — the caller accounts for [entries_read]. *)

val va_index : level:int -> int -> int
(** [va_index ~level va] is the 9-bit table index of [va] at [level]
    (3 = PML4 … 0 = PT). Exposed for {!Ept} and tests. *)

val iter_leaves :
  mem:Sky_mem.Phys_mem.t ->
  root_pa:int ->
  (va:int -> pa:int -> flags:Pte.flags -> unit) ->
  unit
(** Visit every present 4 KiB leaf mapping reachable from [root_pa] with
    the leaf entry's flags — the W^X auditor's view of a process's
    address space. Intermediate entries (always permissive, the leaf
    gates) are not reported. *)

val pages : t -> int
(** Number of table pages owned by this page table (including the root). *)
