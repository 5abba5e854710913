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
