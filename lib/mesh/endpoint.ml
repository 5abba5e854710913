open Sky_sim
open Sky_ukernel
module Notification = Sky_kernels.Notification

let push_cycles = 120 (* enqueue + badge OR-in *)
let pop_cycles = 90 (* dequeue from the own queue *)
let steal_cycles = 60 (* extra: scan peers + cross-queue take *)

type 'a t = {
  kernel : Kernel.t;
  note : Notification.t;
  queues : 'a Queue.t array;
  capacity : int option;  (** per-receiver queue bound; [None] = unbounded *)
  mutable rr : int;  (** deterministic round-robin push cursor *)
  mutable pushed : int;
  mutable popped : int;
  mutable steals : int;
  mutable rejected : int;  (** {!try_push} refusals against [capacity] *)
}

let create ?capacity kernel ~name ~receivers =
  if receivers < 1 then invalid_arg "Endpoint.create: no receivers";
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Endpoint.create: capacity"
  | _ -> ());
  {
    kernel;
    note = Notification.create kernel ~name;
    queues = Array.init receivers (fun _ -> Queue.create ());
    capacity;
    rr = 0;
    pushed = 0;
    popped = 0;
    steals = 0;
    rejected = 0;
  }

let note t = t.note
let pending t = Array.fold_left (fun a q -> a + Queue.length q) 0 t.queues
let pushed t = t.pushed
let popped t = t.popped
let steals t = t.steals
let rejected t = t.rejected

let pick_receiver t receiver =
  match receiver with
  | Some r -> r mod Array.length t.queues
  | None ->
    let r = t.rr in
    t.rr <- (t.rr + 1) mod Array.length t.queues;
    r

let enqueue t ~core recv item =
  Queue.add item t.queues.(recv);
  t.pushed <- t.pushed + 1;
  Cpu.charge (Kernel.cpu t.kernel ~core) push_cycles;
  Notification.signal t.note ~core ~badge:(1 lsl recv)

let push t ~core ?receiver item = enqueue t ~core (pick_receiver t receiver) item

(* Admission-controlled enqueue: against the configured bound the length
   check happens before the round-robin cursor moves, so a rejected push
   leaves the cursor (and thus the deterministic schedule) untouched. *)
let try_push t ~core item =
  match t.capacity with
  | Some cap when Queue.length t.queues.(t.rr) >= cap ->
    t.rejected <- t.rejected + 1;
    Cpu.charge (Kernel.cpu t.kernel ~core) push_cycles;
    false
  | _ ->
    enqueue t ~core (pick_receiver t None) item;
    true

(* Steal source: the longest peer queue, ties to the lowest index — a
   pure function of queue contents, so the schedule stays deterministic.
   -1 when every peer queue is empty. *)
let rec steal_source t ~recv i best best_len =
  if i >= Array.length t.queues then best
  else
    let len = Queue.length t.queues.(i) in
    if i <> recv && len > best_len then steal_source t ~recv (i + 1) i len
    else steal_source t ~recv (i + 1) best best_len

(* A pop allocates only the option it returns. *)
let pop t ~core ~recv =
  let own = t.queues.(recv) in
  if not (Queue.is_empty own) then begin
    let item = Queue.take own in
    t.popped <- t.popped + 1;
    Cpu.charge (Kernel.cpu t.kernel ~core) pop_cycles;
    Some item
  end
  else
    let src = steal_source t ~recv 0 (-1) 0 in
    if src < 0 then None
    else begin
      let item = Queue.take t.queues.(src) in
      t.popped <- t.popped + 1;
      t.steals <- t.steals + 1;
      Cpu.charge (Kernel.cpu t.kernel ~core) (pop_cycles + steal_cycles);
      Some item
    end
