(** One simulated CPU core.

    Holds the purely architectural per-core state: the cycle counter (TSC),
    private L1i/L1d/L2 caches, instruction and data TLBs and the PMU. The
    MMU layer wraps this with virtualization state (CR3, VMCS); the kernel
    layer adds scheduling state. The shared L3 lives in {!Machine}. *)

type t

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

val l1i : t -> Cache.t
val l1d : t -> Cache.t
val l2 : t -> Cache.t
val l3 : t -> Cache.t
val itlb : t -> Tlb.t
val dtlb : t -> Tlb.t

val psc_pml4e : t -> Psc.t
(** Paging-structure cache over VA bits 47:39 → PDPT base GPA. *)

val psc_pdpte : t -> Psc.t
(** VA bits 47:30 → PD base GPA. *)

val psc_pde : t -> Psc.t
(** VA bits 47:21 → PT base GPA. *)

val ept_walk_cache : t -> Psc.t
(** Nested-walk cache: (EPT root, GPN) → HPN. *)

val walk_scratch : t -> int array
(** The hardware page walker's scratch (4 slots): the PAs of the EPT
    entries an in-flight nested walk has read, root first, held until
    the walk succeeds and they are charged. Per core, so the walker
    needs neither a list nor shared state. *)

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

val flush_all : t -> unit
(** Invalidate all private caches and TLBs (power-on state). *)
