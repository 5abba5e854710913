(** Extended page tables (GPA → HPA), stored in simulated physical memory.

    Supports the two shapes SkyBridge needs (§4.1, §4.3):

    - the Rootkernel's {e base EPT}, identity-mapping almost all host
      physical memory with 1 GiB huge pages so that the Subkernel never
      takes an EPT violation and nested walks stay short;
    - per-client {e server EPTs}: shallow clones of the base EPT in which
      the guest-physical address of the client's CR3 frame is remapped to
      the host-physical address of the server's CR3 frame. The clone is
      copy-on-write: only the four table pages on the path to the remapped
      GPA are private ("Only four pages ... are modified", §4.3). *)

type t

type fault = Ept_not_present of int  (** faulting guest-physical address *)

exception Ept_violation of fault

val create : Sky_mem.Frame_alloc.t -> t

val root_pa : t -> int
(** The EPTP value (physical address of the root table). *)

val map_identity_1g :
  t -> mem:Sky_mem.Phys_mem.t -> alloc:Sky_mem.Frame_alloc.t -> gib:int -> unit
(** Identity-map [gib] gibibytes of guest-physical space with 1 GiB huge
    pages (read/write/execute). *)

val map_identity_4k :
  t -> mem:Sky_mem.Phys_mem.t -> alloc:Sky_mem.Frame_alloc.t -> mib:int -> unit
(** Identity-map [mib] mebibytes with 4 KiB pages — the ablation baseline
    showing why the Rootkernel insists on 1 GiB pages (longer nested
    walks, far more EPT pages). *)

val map_4k :
  t ->
  mem:Sky_mem.Phys_mem.t ->
  alloc:Sky_mem.Frame_alloc.t ->
  gpa:int ->
  hpa:int ->
  unit
(** Map a single 4 KiB guest-physical page (r/w/x); splits huge mappings
    along the way as needed. *)

val map_4k_flags :
  t ->
  mem:Sky_mem.Phys_mem.t ->
  alloc:Sky_mem.Frame_alloc.t ->
  gpa:int ->
  hpa:int ->
  flags:Pte.flags ->
  unit
(** {!map_4k} with explicit permissions (EPT reading of the bits: bit 1
    write, bit 2 execute) — how the Subkernel maps the trampoline page
    non-writable into server EPTs. *)

val unmap_4k :
  t ->
  mem:Sky_mem.Phys_mem.t ->
  alloc:Sky_mem.Frame_alloc.t ->
  gpa:int ->
  unit
(** Make one 4 KiB GPA page not-present (subsequent access faults);
    splits huge mappings along the way. Used by tests to inject EPT
    violations. *)

val clone_shallow :
  t -> mem:Sky_mem.Phys_mem.t -> alloc:Sky_mem.Frame_alloc.t -> t
(** New EPT whose root is a copy of this EPT's root; all lower levels are
    shared until {!map_4k}/{!remap_gpa} copies them on write. *)

val clone_deep :
  t -> mem:Sky_mem.Phys_mem.t -> alloc:Sky_mem.Frame_alloc.t -> t
(** Copy every table page (the ablation contrast to {!clone_shallow}:
    §4.3's "just a shallow copy" claim quantified). *)

val remap_gpa :
  t ->
  mem:Sky_mem.Phys_mem.t ->
  alloc:Sky_mem.Frame_alloc.t ->
  gpa:int ->
  hpa:int ->
  unit
(** The CR3-remapping trick: make guest-physical page [gpa] translate to
    host-physical page [hpa] in this EPT. *)

type walk_result = {
  hpa : int;
  entries_read : int list;  (** PAs of EPT entries touched, root first *)
}

val walk :
  mem:Sky_mem.Phys_mem.t -> root_pa:int -> gpa:int -> (walk_result, fault) result

val walk_flags :
  mem:Sky_mem.Phys_mem.t ->
  root_pa:int ->
  gpa:int ->
  (int * Pte.flags, fault) result
(** Like {!walk} but returns the leaf entry's frame PA and flags — what
    the invariant checker needs to judge permissions. *)

val iter_leaves :
  mem:Sky_mem.Phys_mem.t ->
  root_pa:int ->
  (gpa:int -> hpa:int -> level:int -> flags:Pte.flags -> unit) ->
  unit
(** Visit every present leaf mapping reachable from [root_pa]: 4 KiB
    leaves at [level = 0] and huge leaves at their level. [hpa] is the
    base frame/region PA stored in the entry. *)

val pages_owned : t -> int
(** Table pages private to this EPT — 1 for a fresh shallow clone, 4 after
    one CR3 remap (§4.3's "only four pages"). *)
