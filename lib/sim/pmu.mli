(** Performance monitoring unit: per-core event counters.

    Holds events that are not tied to a particular cache/TLB structure
    (those derive their counters from {!Cache}/{!Tlb} statistics via
    {!Cpu.footprint}): IPIs, VM exits, VMFUNC and SYSCALL executions, CR3
    writes, IPC round trips. *)

type event =
  | Ipi_sent
  | Vm_exit
  | Vmfunc_exec
  | Syscall_exec
  | Cr3_write
  | Ipc_roundtrip
  | Instruction
  | Psc_hit  (** TLB refill resumed the guest walk from a PSC level *)
  | Psc_miss  (** TLB refill had to walk from CR3 *)
  | Ept_walk_cache_hit
  | Ept_walk_cache_miss
  | Hot_line_hit
      (** never counted: the host-side TLB memo it counted is gone; kept
          only because [bench/perf] still lists it *)
  | Walk_cycles  (** accumulator: simulated cycles spent in TLB refills *)
  | Wrpkru_exec  (** WRPKRU protection-key switches (MPK backend) *)

type t

val create : unit -> t
val count : t -> event -> unit
val add : t -> event -> int -> unit
val read : t -> event -> int
val reset : t -> unit
val name : event -> string
