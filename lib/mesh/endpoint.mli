(** Multi-receiver endpoints: one service URI fanning out over N
    receiver cores (hiillos's "multiple parallel receivers", the shape a
    serving fleet needs), replacing RSS-as-routing with an explicit
    queue + {!Sky_kernels.Notification} wake.

    Each receiver owns a FIFO receive queue; {!push} places an item on
    one queue (round-robin by default) and signals the endpoint's
    notification with the receiver's badge bit. {!pop} serves the
    receiver's own queue first and otherwise {e steals} from the longest
    other queue (ties to the lowest index) — deterministic, so whole
    runs stay bit-reproducible under {!Sky_sim.Machine.interleave}.

    Items are non-negative ids (a server's request slots), kept in
    per-receiver rings that grow on demand, so a push or a pop allocates
    nothing on the host.

    Conservation invariant (checked by test/test_mesh.ml): every pushed
    item is popped exactly once, under any receiver interleaving. *)

type t

val create :
  ?capacity:int -> Sky_ukernel.Kernel.t -> name:string -> receivers:int -> t
(** [capacity] bounds each receiver's queue for {!try_push} (admission
    control); {!push} itself stays unbounded — reserved for items that
    must not be dropped (crash replays, denial bounces). *)

val push : t -> core:int -> ?receiver:int -> int -> unit
(** Enqueue on [receiver]'s queue (default: round-robin cursor), charge
    the enqueue cost on [core], and signal the wake notification with
    badge bit [1 lsl receiver]. Raises [Invalid_argument] on a negative
    id. *)

val try_push : t -> core:int -> int -> bool
(** Like {!push} to the round-robin receiver, but refusing (returning
    [false], counting it in {!rejected}) when the target queue already
    holds [capacity] items — the bounded-queue admission decision.
    Always succeeds on an unbounded endpoint. *)

val pop : t -> core:int -> recv:int -> int
(** Dequeue for receiver [recv]: own queue first, then steal from the
    longest other queue. -1 when the whole endpoint is empty. *)

val note : t -> Sky_kernels.Notification.t
(** The wake notification — what an idle receiver blocks on. *)

val pending : t -> int
(** Items currently queued across all receivers. *)

val pushed : t -> int
val popped : t -> int
val steals : t -> int

val rejected : t -> int
(** {!try_push} refusals (load shed at the queue). *)
