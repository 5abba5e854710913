(** Asynchronous notifications (seL4-style), the other half of a modern
    microkernel's IPC story ("current microkernels usually contain a
    mixture of both synchronous and asynchronous IPCs", §8.1).

    A notification is a word of badge bits. [signal] ORs bits in and, if
    a waiter on another core is blocked, kicks it with an IPI. [wait]
    consumes the word, blocking (in virtual time) until the next signal
    when it is empty. Signals coalesce — N signals before a wait deliver
    one word with the union of the badges.

    Pending state is O(1): the word plus the virtual time of the oldest
    signal folded into it (the first signal since the word was last
    consumed), the one instant a consumer advances to. Because badges
    are non-zero, the word is empty exactly when nothing is pending, so
    consuming the word ({!wait}, {!poll}) also forgets that time and the
    next signal starts a fresh one. Signal, wait and poll allocate
    nothing on the host. *)

type t

val create : Sky_ukernel.Kernel.t -> name:string -> t

val signal : t -> core:int -> badge:int -> unit
(** Kernel entry + OR the badge in + one IPI per blocked cross-core
    waiter. Waiters are woken (and deregistered) exactly once however
    many signals coalesce before they run.
    @raise Invalid_argument if [badge = 0], before anything is charged
    or counted: a zero badge would wake waiters without leaving a word
    for them to consume. *)

val poll : t -> core:int -> int option
(** Non-blocking: the accumulated word, or [None] when empty. *)

val wait : t -> core:int -> int
(** Consume the word, first advancing the core to the oldest pending
    signal's virtual time (a no-op if the core is already past it).
    @raise Would_block if nothing is pending; the core is then
    registered as a waiter, so the next {!signal} sends it an IPI. *)

exception Would_block

val wait_blocking : ?polls:int -> t -> core:int -> int
(** [wait_blocking t ~core] is the ergonomic wrapper around {!wait}'s
    [Would_block]: consume the word if one is pending (advancing to its
    delivery time) and return it, otherwise register as a waiter, charge
    200 cycles per retry for up to [polls] (default 1) rounds, and
    return 0 — never a consumed word, since badges are non-zero. 0 means
    "block": the caller's run loop (e.g.
    {!Sky_sim.Machine.interleave}) should let other cores — the
    signalers — run and then re-poll; the registered waiter guarantees
    the wakeup IPI is delivered cross-core when the signal lands. *)

val signals : t -> int
val waits : t -> int

val ipis : t -> int
(** Cross-core wakeup IPIs sent by {!signal}. *)

val waiting_cores : t -> int list
(** Cores currently blocked in {!wait}, oldest first. *)
