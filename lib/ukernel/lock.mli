(** A cross-core lock in virtual time.

    Cores are independent cycle counters; a lock serializes them by
    advancing the acquiring core to the release time of the previous
    holder. Contended cross-core handoffs additionally pay a convoy cost
    (the waiter sleeps and is woken through the kernel, then drags the
    protected working set across the cache hierarchy) that grows with
    the number of cores fighting over the lock — the effect that
    collapses the paper's Figures 9–11 as client threads are added. *)

type t = {
  name : string;
  mutable available_at : int;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
  mutable holder : int;
  recent : int array;
  mutable recent_idx : int;
}

val create : string -> t

val acquire : t -> Sky_sim.Cpu.t -> unit
(** Blocks (advances the core) until available; charges the handoff /
    migration cost when the holder changes core. *)

val release : t -> Sky_sim.Cpu.t -> unit

val with_lock : t -> Sky_sim.Cpu.t -> (unit -> 'a) -> 'a
(** Acquire, run, release (exception-safe). *)
