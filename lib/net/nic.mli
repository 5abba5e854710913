(** Simulated multi-queue NIC: RX/TX descriptor rings in simulated
    physical memory, RSS (hash + round-robin redirection table) spreading
    flows over queues, and coalesced RX interrupts delivered through
    badged {!Sky_kernels.Notification}s pinned one-per-core.

    The wire side ([deliver], the [on_tx] hook) models the device's DMA
    engine: raw memory masters that cost no core cycles. The driver side
    ([take], [tx]) reads and writes the same rings through the cache
    hierarchy, so a busy queue has a real footprint in the pinned core's
    caches. *)

type t

exception Ring_full of { queue : int }

val ring_entries : int

val create : Sky_ukernel.Kernel.t -> queues:int -> t
(** Allocate per-queue RX/TX rings and buffer frames from the kernel's
    frame allocator and initialize the RETA round-robin. Queue [i] is
    initially pinned to core [i]. *)

val n_queues : t -> int
val irq : t -> queue:int -> Sky_kernels.Notification.t
val pin : t -> queue:int -> core:int -> unit
(** Re-point queue [queue]'s MSI-X vector at [core]. *)

val queue_of_flow : t -> int -> int
(** RSS: splitmix hash of the flow id into the 128-entry RETA. *)

val set_on_tx : t -> (flow:int -> payload:bytes -> deliver_at:int -> unit) -> unit
(** Install the wire-side TX-completion hook (the load generator's
    loopback). Called synchronously from {!tx} with the sent packet's
    flow, payload and completion time. *)

val deliver : t -> flow:int -> seq:int -> payload:bytes -> at:int -> unit
(** Wire side: DMA one packet into the RSS-selected queue's RX ring and,
    on the empty→non-empty edge, raise the queue's IRQ (badge [1 lsl
    queue]). [at] is the wire timestamp: a consumer polling earlier is
    advanced to it. A full ring drops the packet (counted). *)

val take : t -> queue:int -> core:int -> bytes
(** Driver: pop the next RX packet of a ring the caller knows is not
    empty ({!rx_level}), charging descriptor + payload reads through
    [core]'s caches and advancing the core to the packet's delivery
    time. Returns the payload; its flow and sequence number are
    {!rx_flow} and {!rx_seq} until the next [take] of the queue. Raises
    [Invalid_argument] on an empty ring. *)

val rx_flow : t -> queue:int -> int
val rx_seq : t -> queue:int -> int

val next_deliver_at : t -> queue:int -> int
(** Wire timestamp of the head RX packet, -1 when the ring is empty —
    what an idle worker reports to the interleaved run loop as its
    next-event time. *)

val tx : t -> queue:int -> core:int -> flow:int -> seq:int -> bytes -> unit
(** Driver: post one TX descriptor (charged), ring the doorbell (one
    uncached MMIO store) and complete through the wire hook. *)

val rx_level : t -> queue:int -> int
val rx_pkts : t -> queue:int -> int
val irqs_raised : t -> queue:int -> int
val dropped : t -> int
