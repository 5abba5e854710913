(** Run-queue policies from the paper's §8.1 discussion.

    "Lazy scheduling avoids the frequent queue manipulation, but does not
    guarantee the bounded execution time of the scheduler, which is
    required by some hard real-time systems. Hence, seL4 proposes Benno
    scheduling to address such problem."

    - [Lazy_scheduling] (Liedtke): blocking a thread leaves it in the run
      queue; the IPC path never touches the queue, but [pick] must skip
      over stale blocked entries — unbounded work in the worst case.
    - [Benno]: the queue holds only runnable-but-not-running threads, so
      [pick] is O(1); the IPC fastpath's direct process switch never
      enqueues at all. *)

type policy = Lazy_scheduling | Benno

val policy_name : policy -> string

type thread

val tid : thread -> int
val runnable : thread -> bool

type t

val create : policy -> t

val spawn_thread : t -> tid:int -> thread
(** New runnable thread, appended to the queue. *)

val block : t -> Sky_sim.Cpu.t -> thread -> unit
(** IPC send/receive blocking. Benno dequeues (charged); Lazy just flips
    the flag. *)

val wake : t -> Sky_sim.Cpu.t -> thread -> unit
(** Benno enqueues (charged); Lazy flips the flag (re-enqueueing only if
    the entry was garbage-collected by a previous pick). *)

val pick : t -> Sky_sim.Cpu.t -> thread option
(** Next runnable thread, removed from the queue. Lazy pops and discards
    blocked entries on the way (charging per examined entry) — the
    unbounded part. *)

val queue_length : t -> int
val examined : t -> int
(** Total queue entries looked at by [pick] — the §8.1 boundedness
    metric. *)

val queue_ops : t -> int
(** Enqueues + dequeues performed. *)
