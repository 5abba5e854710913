(** Physical memory access path through the cache hierarchy.

    Every physical access (instruction fetch, data load/store, page-table
    and EPT-entry read) goes through here. The access walks
    L1 → L2 → shared L3 → DRAM, charges the latency of the level that hit
    onto the core's cycle counter, and fills the missed levels. *)

type kind = Insn | Data

val access : Cpu.t -> kind -> int -> unit
(** [access cpu kind pa] performs one cached access to the line containing
    physical address [pa]: charges latency, updates miss counters. *)

val access_state_only : Cpu.t -> kind -> int -> unit
(** Update cache contents and miss counters without charging latency.
    Used for kernel-path footprints whose execution cost is already
    covered by a measured constant — the *pollution* is modelled, the
    cycles are not double-counted. *)

val touch_range_state_only : Cpu.t -> kind -> pa:int -> len:int -> unit
(** {!access_state_only} on every 64-byte line of [pa, pa+len). A run
    of lines that is still resident in the L1 since its last touch hit
    on every line is restamped in one pass ({!Cache.replay}) instead of
    scanning a set per line; the resulting cache state and counters are
    identical. *)

val access_uncached : Cpu.t -> unit
(** A DRAM access that bypasses the hierarchy (device memory). *)

val touch_range : Cpu.t -> kind -> pa:int -> len:int -> unit
(** Access every 64-byte line of [pa, pa+len) — used to model code or data
    footprints (e.g. the kernel text executed during an IPC). *)

(** Host-side hot lines: a flat direct-mapped memo over recent TLB hits,
    keyed by (core, i/d-side, VPN). A successful probe revalidates the
    remembered {!Tlb} slot and reproduces the exact observable state of
    a TLB hit (simulated cycles, counters, LRU) while letting the
    translation layer skip its walk machinery — a pure host wall-clock
    optimization. Cleared on fault-scope entry so chaos runs are
    bit-identical. *)
module Hotline : sig
  type line

  type table
  (** One hot-line memo table. Single-machine runs share the
      process-wide default; the parallel scheduler binds a fresh table
      per shard ({!with_table}, domain-local) so one shard's fault-scope
      clears can never drop another shard's lines. *)

  val fresh_table : unit -> table
  val with_table : table -> (unit -> 'a) -> 'a

  val line_for : core:int -> insn:bool -> vpn:int -> line
  val probe : line -> tlb:Tlb.t -> asid:int -> vpn:int -> int
  (** The remembered {!Tlb} slot index if it still holds the live
      (asid, vpn) mapping — counted as a TLB hit by {!Tlb.slot_hit} —
      else [-1] (nothing counted). *)

  val record : line -> tlb:Tlb.t -> slot:int -> asid:int -> vpn:int -> unit

  val clear_all : unit -> unit
  (** Drop every line of the current table. *)
end
