open Sky_sim
open Sky_ukernel

exception Would_block

type t = {
  kernel : Kernel.t;
  name : string;
  mutable word : int;
  mutable pending_at : int;
      (** virtual time of the oldest signal folded into [word]; read only
          while [word <> 0] *)
  waiters : int array;  (** cores blocked in [wait], oldest first *)
  mutable n_waiters : int;  (** live prefix of [waiters] *)
  mutable signals : int;
  mutable waits : int;
  mutable ipis : int;
}

let create kernel ~name =
  {
    kernel;
    name;
    word = 0;
    pending_at = 0;
    (* A core registers at most once, and [wait] validates the core
       (kernel entry) before registering it. *)
    waiters = Array.make (Machine.n_cores kernel.Kernel.machine) 0;
    n_waiters = 0;
    signals = 0;
    waits = 0;
    ipis = 0;
  }

let signal t ~core ~badge =
  if badge = 0 then invalid_arg "Notification.signal: zero badge";
  t.signals <- t.signals + 1;
  Kernel.kernel_entry t.kernel ~core;
  let cpu = Kernel.cpu t.kernel ~core in
  Cpu.charge cpu 120 (* signal fastpath: word update + waiter check *);
  (* Badges are non-zero, so an empty word means nothing is pending and
     this signal is the oldest one the next consumer will see. *)
  if t.word = 0 then t.pending_at <- Cpu.cycles cpu;
  t.word <- t.word lor badge;
  (* Kick every blocked waiter: one IPI per remote core. N signals racing
     a single wait coalesce — the word accumulates, the waiters are only
     woken (and cleared) once. *)
  for i = 0 to t.n_waiters - 1 do
    let w = t.waiters.(i) in
    if w <> core then begin
      t.ipis <- t.ipis + 1;
      Kernel.send_ipi t.kernel ~from_core:core ~to_core:w
    end
  done;
  t.n_waiters <- 0;
  Kernel.kernel_exit t.kernel ~core

let poll t ~core =
  Kernel.kernel_entry t.kernel ~core;
  Cpu.charge (Kernel.cpu t.kernel ~core) 80;
  let w = t.word in
  t.word <- 0;
  Kernel.kernel_exit t.kernel ~core;
  if w = 0 then None else Some w

let rec waiting t core i =
  i < t.n_waiters && (t.waiters.(i) = core || waiting t core (i + 1))

(* Drop [core] from the waiter queue, keeping the others in order. *)
let unregister t core =
  let kept = ref 0 in
  for i = 0 to t.n_waiters - 1 do
    let c = t.waiters.(i) in
    if c <> core then begin
      t.waiters.(!kept) <- c;
      incr kept
    end
  done;
  t.n_waiters <- !kept

let wait t ~core =
  t.waits <- t.waits + 1;
  Kernel.kernel_entry t.kernel ~core;
  let cpu = Kernel.cpu t.kernel ~core in
  Cpu.charge cpu 150 (* block/unblock bookkeeping *);
  let w = t.word in
  if w <> 0 then begin
    (* Something already pending: if it was signalled "later" than our
       current virtual time (a signaler on another core), block until
       its delivery time. *)
    Cpu.advance_to cpu t.pending_at;
    t.word <- 0;
    unregister t core;
    Kernel.kernel_exit t.kernel ~core;
    w
  end
  else begin
    if not (waiting t core 0) then begin
      t.waiters.(t.n_waiters) <- core;
      t.n_waiters <- t.n_waiters + 1
    end;
    Kernel.kernel_exit t.kernel ~core;
    raise Would_block
  end

(* The documented poll loop for IRQ consumers (the NIC driver path): try
   to consume; on empty, stay registered as a waiter and burn [poll]
   cycles per round, up to [polls] rounds. In a single-threaded
   simulation a signal can only arrive between invocations (when the
   signaling core runs), so callers embed this in a run loop — e.g.
   {!Sky_sim.Machine.interleave} — and treat 0 as "idle, let the other
   cores run". Badges are non-zero, so a consumed word never is. *)
let rec wait_rounds t ~core cpu ~poll n =
  match wait t ~core with
  | w -> w
  | exception Would_block ->
    if n <= 0 then 0
    else begin
      Cpu.charge cpu poll;
      wait_rounds t ~core cpu ~poll (n - 1)
    end

let poll_cycles = 200 (* per polling round of [wait_blocking] *)

let wait_blocking ?(polls = 1) t ~core =
  wait_rounds t ~core (Kernel.cpu t.kernel ~core) ~poll:poll_cycles polls

let signals t = t.signals
let waits t = t.waits
let ipis t = t.ipis
let waiting_cores t = List.init t.n_waiters (Array.get t.waiters)
