(** Per-category cycle accounting for an IPC path — the categories of
    Figure 7: VMFUNC, SYSCALL/SYSRET, context switch, IPI, message copy,
    schedule, others. [walk] is a cross-cutting attribution: the cycles
    spent inside TLB refills (nested page walks), read from the PMU's
    walk-cycles accumulator. Those cycles are already contained in the
    measured categories they occurred under (copy, ctx, other), so
    [walk] is excluded from {!total} — it reports how much of the bar
    is translation machinery, not an extra segment. *)

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

let create () =
  { vmfunc = 0; syscall = 0; ctx = 0; ipi = 0; copy = 0; sched = 0; other = 0;
    walk = 0 }

let total t = t.vmfunc + t.syscall + t.ctx + t.ipi + t.copy + t.sched + t.other

let add a b =
  a.vmfunc <- a.vmfunc + b.vmfunc;
  a.syscall <- a.syscall + b.syscall;
  a.ctx <- a.ctx + b.ctx;
  a.ipi <- a.ipi + b.ipi;
  a.copy <- a.copy + b.copy;
  a.sched <- a.sched + b.sched;
  a.other <- a.other + b.other;
  a.walk <- a.walk + b.walk

let scale t n =
  if n <= 0 then create ()
  else
    {
      vmfunc = t.vmfunc / n;
      syscall = t.syscall / n;
      ctx = t.ctx / n;
      ipi = t.ipi / n;
      copy = t.copy / n;
      sched = t.sched / n;
      other = t.other / n;
      walk = t.walk / n;
    }
