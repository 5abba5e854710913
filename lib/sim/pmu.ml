(** Performance monitoring unit: per-core event counters.

    These are the counters read for Table 1 ("the pollution of processor
    structures") plus counters the harness uses (IPIs, VM exits, IPC
    counts). Cache and TLB miss counters are derived from {!Cache} /
    {!Tlb} statistics by {!Cpu.footprint}; this module holds the events
    that are not attached to a particular structure.

    The translation-acceleration events attribute the walk savings:
    [Psc_hit]/[Psc_miss] count TLB refills that could / could not resume
    the guest walk from a paging-structure cache, [Ept_walk_cache_*]
    count nested translations served from the EPT walk cache, and
    [Walk_cycles] accumulates the simulated cycles spent inside TLB
    refills (read as a delta by the IPC layers for the Figure-7
    breakdown's "walk" column). Nothing counts [Hot_line_hit]; it reads
    0 and stays only for skyperf's event list. *)

type event =
  | Ipi_sent
  | Vm_exit
  | Vmfunc_exec
  | Syscall_exec
  | Cr3_write
  | Ipc_roundtrip
  | Instruction
  | Psc_hit
  | Psc_miss
  | Ept_walk_cache_hit
  | Ept_walk_cache_miss
  | Hot_line_hit
  | Walk_cycles
  | Wrpkru_exec

let n_events = 14

let index = function
  | Ipi_sent -> 0
  | Vm_exit -> 1
  | Vmfunc_exec -> 2
  | Syscall_exec -> 3
  | Cr3_write -> 4
  | Ipc_roundtrip -> 5
  | Instruction -> 6
  | Psc_hit -> 7
  | Psc_miss -> 8
  | Ept_walk_cache_hit -> 9
  | Ept_walk_cache_miss -> 10
  | Hot_line_hit -> 11
  | Walk_cycles -> 12
  | Wrpkru_exec -> 13

let name = function
  | Ipi_sent -> "ipi_sent"
  | Vm_exit -> "vm_exit"
  | Vmfunc_exec -> "vmfunc"
  | Syscall_exec -> "syscall"
  | Cr3_write -> "cr3_write"
  | Ipc_roundtrip -> "ipc_roundtrip"
  | Instruction -> "instruction"
  | Psc_hit -> "psc_hit"
  | Psc_miss -> "psc_miss"
  | Ept_walk_cache_hit -> "ept_walk_cache_hit"
  | Ept_walk_cache_miss -> "ept_walk_cache_miss"
  | Hot_line_hit -> "hot_line_hit"
  | Walk_cycles -> "walk_cycles"
  | Wrpkru_exec -> "wrpkru"

type t = { counts : int array }

let create () = { counts = Array.make n_events 0 }
let count t ev = t.counts.(index ev) <- t.counts.(index ev) + 1
let add t ev n = t.counts.(index ev) <- t.counts.(index ev) + n
let read t ev = t.counts.(index ev)
let reset t = Array.fill t.counts 0 n_events 0
