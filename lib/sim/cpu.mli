(** One simulated CPU core.

    Holds the purely architectural per-core state: the cycle counter (TSC),
    private L1i/L1d/L2 caches, instruction and data TLBs and the PMU. The
    MMU layer wraps this with virtualization state (CR3, VMCS); the kernel
    layer adds scheduling state. The shared L3 lives in {!Machine}.

    The record is private: the memory system and the page walker read a
    core's structures as fields, because a cross-module accessor call is
    never inlined in an [-opaque] build; only this module writes it. *)

type t = private {
  id : int;
  mutable tsc : int;  (** {!cycles}; only {!charge} and {!advance_to} move it *)
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  psc_pml4e : Psc.t;  (** VA bits 47:39 → PDPT base GPA *)
  psc_pdpte : Psc.t;  (** VA bits 47:30 → PD base GPA *)
  psc_pde : Psc.t;  (** VA bits 47:21 → PT base GPA *)
  ept_walk_cache : Psc.t;  (** nested-walk cache: (EPT root, GPN) → HPN *)
  walk_scratch : int array;
      (** The hardware page walker's scratch (4 slots): the PAs of the
          EPT entries an in-flight nested walk has read, root first, held
          until the walk succeeds and they are charged. *)
  pmu : Pmu.t;
}

val create : id:int -> l3:Cache.t -> t
(** Creates a core with Skylake-like private structures:
    L1i 32 KiB/8-way, L1d 32 KiB/8-way, L2 256 KiB/4-way,
    iTLB 128 entries/8-way, dTLB 64 entries/4-way. *)

val id : t -> int
val cycles : t -> int

val charge : t -> int -> unit
(** Advance this core's cycle counter. *)

val advance_to : t -> int -> unit
(** [advance_to t c] sets the counter to [max (cycles t) c] — used when a
    core blocks on a resource another core releases at time [c]. *)

val l1d : t -> Cache.t
val l2 : t -> Cache.t
val l3 : t -> Cache.t
val itlb : t -> Tlb.t
val dtlb : t -> Tlb.t
val psc_pml4e : t -> Psc.t
val psc_pdpte : t -> Psc.t
val psc_pde : t -> Psc.t

val flush_guest_translation : t -> unit
(** Flush leaf TLBs and paging-structure caches (what an untagged CR3
    write or VMFUNC without VPID flushes). The EPT walk cache is keyed
    by host-physical EPT root and deliberately survives. *)

val pmu : t -> Pmu.t

type footprint = {
  l1i_miss : int;
  l1d_miss : int;
  l2_miss : int;
  l3_miss : int;
  itlb_miss : int;
  dtlb_miss : int;
}
(** Snapshot of the Table-1 counters. *)

val footprint : t -> footprint
val reset_stats : t -> unit
(** Reset counters (not contents — pollution state survives, as on real
    hardware when you reprogram the PMU). *)
