open Sky_sim
open Sky_ukernel
module Notification = Sky_kernels.Notification

let push_cycles = 120 (* enqueue + badge OR-in *)
let pop_cycles = 90 (* dequeue from the own queue *)
let steal_cycles = 60 (* extra: scan peers + cross-queue take *)

(* Each receiver's queue is a ring of ids: [lens.(r)] of them from
   [heads.(r)], wrapping; a full ring doubles. Pushes and pops move
   ints, so a queued item costs the host no allocation. *)
type t = {
  kernel : Kernel.t;
  note : Notification.t;
  rings : int array array;
  heads : int array;
  lens : int array;
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
    rings = Array.init receivers (fun _ -> Array.make 8 0);
    heads = Array.make receivers 0;
    lens = Array.make receivers 0;
    capacity;
    rr = 0;
    pushed = 0;
    popped = 0;
    steals = 0;
    rejected = 0;
  }

let note t = t.note
let pending t = Array.fold_left ( + ) 0 t.lens
let pushed t = t.pushed
let popped t = t.popped
let steals t = t.steals
let rejected t = t.rejected

let pick_receiver t receiver =
  match receiver with
  | Some r -> r mod Array.length t.rings
  | None ->
    let r = t.rr in
    t.rr <- (t.rr + 1) mod Array.length t.rings;
    r

(* Append [item] to [recv]'s ring, unrolled into one twice its size
   first when full. *)
let add t recv item =
  let len = t.lens.(recv) and ring = t.rings.(recv) in
  let cap = Array.length ring in
  if len = cap then begin
    let h = t.heads.(recv) in
    t.rings.(recv) <- Array.init (2 * cap) (fun i -> if i < len then ring.((h + i) mod cap) else 0);
    t.heads.(recv) <- 0
  end;
  let ring = t.rings.(recv) in
  ring.((t.heads.(recv) + len) mod Array.length ring) <- item;
  t.lens.(recv) <- len + 1

let enqueue t ~core recv item =
  if item < 0 then invalid_arg "Endpoint.push: negative id";
  add t recv item;
  t.pushed <- t.pushed + 1;
  Cpu.charge (Kernel.cpu t.kernel ~core) push_cycles;
  Notification.signal t.note ~core ~badge:(1 lsl recv)

let push t ~core ?receiver item = enqueue t ~core (pick_receiver t receiver) item

(* Admission-controlled enqueue: against the configured bound the length
   check happens before the round-robin cursor moves, so a rejected push
   leaves the cursor (and thus the deterministic schedule) untouched. *)
let try_push t ~core item =
  match t.capacity with
  | Some cap when t.lens.(t.rr) >= cap ->
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
  if i >= Array.length t.lens then best
  else
    let len = t.lens.(i) in
    if i <> recv && len > best_len then steal_source t ~recv (i + 1) i len
    else steal_source t ~recv (i + 1) best best_len

let pop t ~core ~recv =
  let src = if t.lens.(recv) > 0 then recv else steal_source t ~recv 0 (-1) 0 in
  if src < 0 then -1
  else begin
    t.popped <- t.popped + 1;
    if src <> recv then t.steals <- t.steals + 1;
    Cpu.charge (Kernel.cpu t.kernel ~core)
      (if src = recv then pop_cycles else pop_cycles + steal_cycles);
    let ring = t.rings.(src) and h = t.heads.(src) in
    t.heads.(src) <- (h + 1) mod Array.length ring;
    t.lens.(src) <- t.lens.(src) - 1;
    ring.(h)
  end
