(** A simulated multi-queue NIC.

    Descriptor rings and packet buffers live in simulated physical
    memory, so driver accesses have real cache footprints; the wire side
    (DMA engine) writes them raw, like a device master that bypasses the
    core's caches. Flows are spread over queues by RSS: a splitmix hash
    of the flow id indexed into a 128-entry redirection table (RETA)
    initialized round-robin, exactly the scheme real NICs default to.
    Each queue raises its RX interrupt through a badged
    {!Sky_kernels.Notification} pinned to one core — coalesced, so a
    burst of deliveries costs one wakeup. *)

open Sky_sim
open Sky_ukernel

let ring_entries = 256
let desc_bytes = 16
let buf_slot = 512
let reta_entries = 128

let payload_max = buf_slot - 2 (* u16 length prefix in the buffer slot *)

type ring = {
  desc_pa : int;  (** descriptor array base (simulated physical memory) *)
  buf_pa : int;  (** packet buffer slots, [buf_slot] bytes each *)
  mutable head : int;  (** consumer index (free-running) *)
  mutable tail : int;  (** producer index (free-running) *)
  deliver_at : int array;  (** per-slot wire timestamp (sim bookkeeping) *)
}

type queue = {
  id : int;
  rx : ring;
  tx : ring;
  irq : Sky_kernels.Notification.t;
  mutable pinned_core : int;
  mutable rx_pkts : int;
  mutable irqs_raised : int;
  mutable rx_flow : int;  (** the flow of the packet {!take} returned last *)
  mutable rx_seq : int;  (** and its sequence number *)
}

type t = {
  kernel : Kernel.t;
  queues : queue array;
  reta : int array;
  mutable on_tx : flow:int -> payload:bytes -> deliver_at:int -> unit;
      (** wire-side TX-completion hook *)
  mutable dropped : int;  (** ring-full drops *)
}

exception Ring_full of { queue : int }

let alloc_ring kernel =
  let alloc = Kernel.alloc kernel in
  let desc_pa =
    Sky_mem.Frame_alloc.alloc_frames alloc
      ~count:((ring_entries * desc_bytes) / Sky_mem.Phys_mem.frame_size)
  in
  let buf_pa =
    Sky_mem.Frame_alloc.alloc_frames alloc
      ~count:((ring_entries * buf_slot) / Sky_mem.Phys_mem.frame_size)
  in
  { desc_pa; buf_pa; head = 0; tail = 0; deliver_at = Array.make ring_entries 0 }

let create kernel ~queues:nq =
  if nq <= 0 then invalid_arg "Nic.create: queues <= 0";
  let queues =
    Array.init nq (fun id ->
        {
          id;
          rx = alloc_ring kernel;
          tx = alloc_ring kernel;
          irq =
            Sky_kernels.Notification.create kernel
              ~name:(Printf.sprintf "nic-rxq%d" id);
          pinned_core = id;
          rx_pkts = 0;
          irqs_raised = 0;
          rx_flow = -1;
          rx_seq = -1;
        })
  in
  (* RETA default: round-robin over the enabled queues. *)
  let reta = Array.init reta_entries (fun i -> i mod nq) in
  { kernel; queues; reta; on_tx = (fun ~flow:_ ~payload:_ ~deliver_at:_ -> ()); dropped = 0 }

let n_queues t = Array.length t.queues
let irq t ~queue = t.queues.(queue).irq
let pin t ~queue ~core = t.queues.(queue).pinned_core <- core
let set_on_tx t f = t.on_tx <- f
let dropped t = t.dropped

(* splitmix64 finalizer over the flow id — the "Toeplitz hash" stand-in. *)
let rss_hash flow =
  let z = Int64.of_int (flow * 2 + 0x9e3779b9) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int

let queue_of_flow t flow = t.reta.(rss_hash flow land (reta_entries - 1))

let ring_level r = r.tail - r.head
let rx_level t ~queue = ring_level t.queues.(queue).rx

(* ---- raw descriptor encoding ----
   [flow:u32][seq:u32][len:u16][pad:u16][gen:u32] at desc_pa + slot*16.
   The wire writes raw (device DMA); the driver reads through the cache
   model so polling the ring has an honest footprint. *)

let write_desc mem r slot ~flow ~seq ~len =
  let pa = r.desc_pa + (slot * desc_bytes) in
  Sky_mem.Phys_mem.write_u32 mem pa flow;
  Sky_mem.Phys_mem.write_u32 mem (pa + 4) seq;
  Sky_mem.Phys_mem.write_u16 mem (pa + 8) len

let charge_desc cpu r slot =
  Memsys.touch_range cpu Memsys.Data ~pa:(r.desc_pa + (slot * desc_bytes))
    ~len:desc_bytes

let charge_payload cpu r slot len =
  Memsys.touch_range cpu Memsys.Data ~pa:(r.buf_pa + (slot * buf_slot))
    ~len:(max 1 len)

(* ---- wire side (RX delivery) ---- *)

let deliver t ~flow ~seq ~payload ~at =
  if Bytes.length payload > payload_max then
    invalid_arg "Nic.deliver: payload exceeds MTU";
  let q = t.queues.(queue_of_flow t flow) in
  let r = q.rx in
  if ring_level r >= ring_entries then begin
    t.dropped <- t.dropped + 1
  end
  else begin
    let slot = r.tail mod ring_entries in
    let mem = Kernel.mem t.kernel in
    write_desc mem r slot ~flow ~seq ~len:(Bytes.length payload);
    Sky_mem.Phys_mem.write_bytes mem (r.buf_pa + (slot * buf_slot)) payload;
    r.deliver_at.(slot) <- at;
    let was_empty = ring_level r = 0 in
    r.tail <- r.tail + 1;
    q.rx_pkts <- q.rx_pkts + 1;
    (* Interrupt coalescing: only the empty->non-empty edge raises the
       MSI-X vector; packets landing on a backlogged ring are picked up
       by the same service pass. *)
    if was_empty then begin
      q.irqs_raised <- q.irqs_raised + 1;
      Sky_kernels.Notification.signal q.irq ~core:q.pinned_core
        ~badge:(1 lsl q.id)
    end
  end

(* ---- driver side ---- *)

let take t ~queue ~core =
  let q = t.queues.(queue) in
  let r = q.rx in
  if ring_level r = 0 then invalid_arg "Nic.take: empty RX ring";
  let cpu = Kernel.cpu t.kernel ~core in
  let slot = r.head mod ring_entries in
  charge_desc cpu r slot;
  let mem = Kernel.mem t.kernel in
  let pa = r.desc_pa + (slot * desc_bytes) in
  q.rx_flow <- Sky_mem.Phys_mem.read_u32 mem pa;
  q.rx_seq <- Sky_mem.Phys_mem.read_u32 mem (pa + 4);
  let len = Sky_mem.Phys_mem.read_u16 mem (pa + 8) in
  (* The packet exists on the wire only from its delivery time. *)
  Cpu.advance_to cpu r.deliver_at.(slot);
  charge_payload cpu r slot len;
  let payload = Sky_mem.Phys_mem.read_bytes mem (r.buf_pa + (slot * buf_slot)) len in
  r.head <- r.head + 1;
  payload

let rx_flow t ~queue = t.queues.(queue).rx_flow
let rx_seq t ~queue = t.queues.(queue).rx_seq

let next_deliver_at t ~queue =
  let r = t.queues.(queue).rx in
  if ring_level r = 0 then -1 else r.deliver_at.(r.head mod ring_entries)

let tx t ~queue ~core ~flow ~seq payload =
  if Bytes.length payload > payload_max then
    invalid_arg "Nic.tx: payload exceeds MTU";
  let q = t.queues.(queue) in
  let r = q.tx in
  if ring_level r >= ring_entries then raise (Ring_full { queue });
  let cpu = Kernel.cpu t.kernel ~core in
  let slot = r.tail mod ring_entries in
  let mem = Kernel.mem t.kernel in
  (* The driver composes the descriptor and payload through the cache
     hierarchy (it owns these lines until the doorbell rings). *)
  charge_desc cpu r slot;
  charge_payload cpu r slot (Bytes.length payload);
  write_desc mem r slot ~flow ~seq ~len:(Bytes.length payload);
  Sky_mem.Phys_mem.write_bytes mem (r.buf_pa + (slot * buf_slot)) payload;
  r.tail <- r.tail + 1;
  (* Doorbell: an uncached MMIO store. *)
  Memsys.access_uncached cpu;
  (* The simulated wire completes TX immediately: hand the packet to the
     installed wire hook (the load generator's loopback), field by field,
     so a reply builds no packet record. *)
  r.head <- r.head + 1;
  t.on_tx ~flow ~payload ~deliver_at:(Cpu.cycles cpu)

let rx_pkts t ~queue = t.queues.(queue).rx_pkts
let irqs_raised t ~queue = t.queues.(queue).irqs_raised
