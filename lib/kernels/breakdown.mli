(** Per-category cycle accounting for an IPC path — the stacked-bar
    categories of Figure 7: VMFUNC, SYSCALL/SYSRET, context switch, IPI,
    message copy, schedule, others.

    [walk] is a cross-cutting attribution, not a bar segment: the cycles
    spent inside TLB refills (nested page walks) during the call, read
    as a delta of the PMU walk-cycles accumulator. They are already part
    of whichever measured category they occurred under (copy, ctx,
    other), so [walk] is {e excluded} from {!total}. *)

type t = {
  mutable vmfunc : int;
  mutable syscall : int;
  mutable ctx : int;
  mutable ipi : int;
  mutable copy : int;
  mutable sched : int;
  mutable other : int;
  mutable walk : int;
}

val create : unit -> t

val total : t -> int
(** Sum of the bar segments; [walk] is excluded (see above). *)

val add : t -> t -> unit
(** Accumulate [b] into [a]. *)

val scale : t -> int -> t
(** Per-roundtrip average over [n] calls. *)
