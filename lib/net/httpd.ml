(** skyhttpd: an N-worker HTTP-style server over the simulated NIC.

    Routing is a multi-receiver {!Sky_mesh.Endpoint}: RSS still spreads
    packets across NIC rings, but a ring is just transport — the worker
    that owns queue [i] (worker [i], pinned to core [i]) demultiplexes
    its socket events and {e pushes} each request onto the shared
    endpoint, and any worker may serve it (own receive queue first, then
    work-stealing from the longest peer queue). Workers beyond the
    number of NIC queues own no ring at all and live purely off the
    endpoint — true fan-out of one server URI across more cores than RX
    queues. Idle workers block on the endpoint's notification (or their
    ring's RX IRQ) and are woken by badge signal.

    Each request is served by calling the KV and FS {e backends} through
    the worker's bindings — mediated SkyBridge calls on the fast path
    (URI-addressed through the mesh in the composed scenarios), each
    baseline kernel's synchronous IPC on the slowpath variant.

    {b Admission control} (the overload story): an {!admission} config
    bounds the endpoint's per-receiver queues — a demultiplexed request
    that finds its target queue full is {e shed} with a typed 503 before
    it costs anything but the parse of its envelope. Requests may carry
    a TTL (a [TTL<cycles> ] prefix); the ring owner stamps an absolute deadline
    at demux time, a request that expires while queued is shed on pop,
    and the live deadline is exported ({!current_deadline}) so the
    worker→backend hop can propagate the remaining budget as a call
    timeout. When [a_batch_max > 1] a worker drains up to that many
    requests per quantum and carries all their KV operations to the
    backend in {e one} SkyBridge crossing ({!binding.kv_batch}),
    amortizing the per-call overhead exactly when queues are deep —
    replies stay in pop order, so per-connection ordering is preserved.

    Worker scheduling is wired through {!Sky_kernels.Scheduler} (Benno):
    the per-core run queue holds the worker thread exactly while it has
    work, so IRQ wakeups and idle blocking charge the real O(1) queue
    operations.

    Fault site ["server.httpd"]: a [Crash] kills the worker mid-request
    (the §7 story applied to the application tier). The in-flight
    requests are parked, the worker's server bindings are revoked, and
    the supervisor restarts it after {!restart_cycles}, re-binding
    (PR 3 machinery) and replaying the parked requests — no request is
    ever lost. [Hang] burns cycles past the watchdog budget, surfacing
    as a tail-latency spike.

    A binding may raise {!Denied} (its capability was revoked — the
    mesh's least-privilege path): the worker survives, counts the
    denial, and hands the request to the next receiver on the endpoint.
    Each request carries a bitmask of the workers that denied it; once
    {e every} worker has bounced it, the request terminates with a typed
    403 instead of cycling between receivers forever. *)

open Sky_sim
open Sky_ukernel
module Fault = Sky_faults.Fault
module Scheduler = Sky_kernels.Scheduler
module Notification = Sky_kernels.Notification
module Endpoint = Sky_mesh.Endpoint
module Kv_wire = Sky_kvstore.Kv_wire

let worker_text = 6 * 1024 (* request-handling instruction working set *)
let parse_base = 300
let parse_per_byte = 2
let respond_base = 150
let respond_per_byte = 1
let cache_hit_base = 250 (* static-file cache: hash lookup + header copy *)
let hang_cycles = 60_000
let restart_cycles = 25_000 (* exec + dynamic linking of a fresh worker *)

let denial_backoff_cycles = 4_000
(* After a capability denial the worker stays off the endpoint for this
   long: without it, the revoked worker re-steals the request it just
   bounced faster than the privileged peer can wake, and a single fs://
   request ping-pongs dozens of times before being served. *)

(* Typed backend bindings, one set per worker. The closures capture the
   worker's process and transport (SkyBridge direct calls — possibly
   URI-routed through the mesh — or baseline kernel IPC);
   [revoke]/[rebind] tear down and re-establish the worker's server
   bindings around a crash. Keys and values are slices of the request's
   wire bytes; [kv_batch] carries a whole ['B'] message of KV operations
   in one backend crossing and answers its reply. *)
type binding = {
  kv_put :
    core:int -> bytes -> key_off:int -> key_len:int -> value_off:int -> value_len:int -> bool;
  kv_get : core:int -> bytes -> key_off:int -> key_len:int -> bytes;
  fs_read : core:int -> name:string -> bytes option;
  kv_batch : core:int -> bytes -> bytes;
  revoke : core:int -> unit;
  rebind : core:int -> unit;
}

type admission = {
  a_queue_cap : int option;
      (** per-receiver endpoint queue bound; [None] = unbounded *)
  a_default_ttl : int option;
      (** deadline (cycles from demux) stamped on TTL-less requests *)
  a_batch_max : int;  (** max requests drained per worker quantum *)
}

let no_admission = { a_queue_cap = None; a_default_ttl = None; a_batch_max = 1 }

type worker_state =
  | Running
  | Dead of int  (** crashed; restart completes at this cycle *)

type worker = {
  w_core : int;
  w_proc : Proc.t;
  w_sched : Scheduler.t;  (** this core's run queue *)
  w_thread : Scheduler.thread;
  w_binding : binding;
  w_text_pa : int;
  mutable w_state : worker_state;
  mutable w_cache : (string * bytes) list;
      (** static-file cache: xv6fs is hit only on cold misses (the
          big-locked FS would otherwise convoy every worker, §8.1);
          wiped when the worker crashes, like any process-local state.
          A handful of static assets, probed by comparing the requested
          name in place. *)
  w_batch : int array;  (** the request slots being served, in pop order *)
  mutable w_nbatch : int;
  mutable w_parked : bool;
      (** [w_batch] holds the requests being served when the worker
          crashed — replayed on restart *)
  mutable w_served : int;
  mutable w_restarts : int;
  mutable w_hangs : int;
  mutable w_denied : int;  (** requests bounced to a peer on Denied *)
  mutable w_backoff : int;
      (** no endpoint pops before this cycle (set on a denial) *)
}

(* A demultiplexed request is an int slot riding the endpoint; its
   fields live in the [s_] arrays, which double when every slot is
   taken. The deadline is absolute (stamped by the ring owner, -1 for
   none), the denied mask accumulates the workers that bounced it so
   denial-by-all terminates instead of looping, and the parse is
   {!Http.parse_request}'s answer on the payload from [s_off] (past any
   TTL prefix). A slot is freed when its terminal response is sent. *)
type t = {
  kernel : Kernel.t;
  nic : Nic.t;
  socks : Socket.t;
  workers : worker array;
  ep : Endpoint.t;
      (** the routing mechanism: every parsed request goes through here *)
  file_cache : bool;
  admission : admission;
  deadlines : int array;
      (** per-core live deadline (-1 = none) while a request is
          dispatched — what the binding's deadline-propagation wrapper
          reads *)
  wire_hint : unit -> int;
      (** next known future wire event beyond the rings (an open-loop
          generator's next arrival), -1 for none — lets idle workers
          sleep to it *)
  queue_done : queue:int -> bool;
  mutable s_conn : Socket.conn array;
  mutable s_payload : bytes array;
  mutable s_off : int array;
  mutable s_deadline : int array;
  mutable s_denied : int array;
  mutable s_parse : int array;
  mutable s_free : int array;  (** free slots, a stack *)
  mutable s_nfree : int;
  kv_batch : Kv_wire.batch;  (** the batched crossing's message *)
  reply_off : int array;  (** its answer, read in place *)
  reply_len : int array;
  mutable kv_reply : bytes;
  mutable kv_count : int;  (** batched replies being answered; 0 = none *)
  mutable kv_next : int;  (** the next one's index *)
  mutable idle : Machine.step;  (** the last [Idle_until] returned *)
  mutable served : int;
  mutable bad_requests : int;
  mutable shed_queue : int;
  mutable shed_expired : int;
  mutable unservable : int;
  mutable batches : int;
  mutable batched_ops : int;
}

let fault_site = "server.httpd"

exception Worker_crashed
exception Denied

exception Expired
(** Raised by a deadline-aware binding when the request's remaining
    budget is gone: the request is shed with a 503, not an error. *)

(* A slot's parse before the worker parses it, and after a malformed
   request: answered 400. *)
let invalid = min_int

let initial_slots = 16

let grow a fill =
  let n = Array.length a in
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

(* The last freed slot, or a fresh one when every slot is taken: the
   arrays double and the new ids join the free stack. *)
let alloc_slot t =
  if t.s_nfree = 0 then begin
    let n = Array.length t.s_off in
    t.s_conn <- grow t.s_conn t.s_conn.(0);
    t.s_payload <- grow t.s_payload Bytes.empty;
    t.s_off <- grow t.s_off 0;
    t.s_deadline <- grow t.s_deadline 0;
    t.s_denied <- grow t.s_denied 0;
    t.s_parse <- grow t.s_parse 0;
    t.s_free <- grow t.s_free 0;
    for i = 0 to n - 1 do
      t.s_free.(i) <- (2 * n) - 1 - i
    done;
    t.s_nfree <- n
  end;
  t.s_nfree <- t.s_nfree - 1;
  t.s_free.(t.s_nfree)

let free_slot t r =
  t.s_payload.(r) <- Bytes.empty;
  t.s_free.(t.s_nfree) <- r;
  t.s_nfree <- t.s_nfree + 1

let rec same_name p off name i =
  i >= String.length name
  || (Bytes.unsafe_get p (off + i) = String.unsafe_get name i && same_name p off name (i + 1))

(* The cached contents of the file named by [p]'s [len] bytes from
   [off]; [Not_found] when none. *)
let rec cached p off len = function
  | [] -> raise Not_found
  | (name, data) :: rest ->
    if String.length name = len && same_name p off name 0 then data else cached p off len rest

let cache_file w name data = w.w_cache <- (name, data) :: List.remove_assoc name w.w_cache

let create ?(preload = []) ?(file_cache = true) ?(admission = no_admission)
    ?(wire_hint = fun () -> -1) kernel nic ~workers:procs ~queue_done =
  let n = Array.length procs in
  if n = 0 then invalid_arg "Httpd.create: no workers";
  if Nic.n_queues nic > n then
    invalid_arg "Httpd.create: fewer workers than queues";
  if n > Machine.n_cores kernel.Kernel.machine then
    invalid_arg "Httpd.create: more workers than cores";
  if admission.a_batch_max < 1 then invalid_arg "Httpd.create: batch_max";
  let socks = Socket.create kernel nic in
  let ep =
    Endpoint.create ?capacity:admission.a_queue_cap kernel
      ~name:"httpd-endpoint" ~receivers:n
  in
  let workers =
    Array.init n (fun i ->
        let proc, binding = procs.(i) in
        let text_pa =
          Sky_mem.Frame_alloc.alloc_frames (Kernel.alloc kernel)
            ~count:((worker_text + 4095) / 4096)
        in
        let sched = Scheduler.create Scheduler.Benno in
        let thread = Scheduler.spawn_thread sched ~tid:i in
        if i < Nic.n_queues nic then Nic.pin nic ~queue:i ~core:i;
        {
          w_core = i;
          w_proc = proc;
          w_sched = sched;
          w_thread = thread;
          w_binding = binding;
          w_text_pa = text_pa;
          w_state = Running;
          w_cache = [];
          w_batch = Array.make admission.a_batch_max 0;
          w_nbatch = 0;
          w_parked = false;
          w_served = 0;
          w_restarts = 0;
          w_hangs = 0;
          w_denied = 0;
          w_backoff = 0;
        })
  in
  let no_conn = { Socket.flow = -1; queue = -1; rx_seq = 0; tx_seq = 0; requests = 0 } in
  let t =
    {
      kernel;
      nic;
      socks;
      workers;
      ep;
      file_cache;
      admission;
      deadlines = Array.make n (-1);
      wire_hint;
      queue_done;
      s_conn = Array.make initial_slots no_conn;
      s_payload = Array.make initial_slots Bytes.empty;
      s_off = Array.make initial_slots 0;
      s_deadline = Array.make initial_slots 0;
      s_denied = Array.make initial_slots 0;
      s_parse = Array.make initial_slots 0;
      s_free = Array.init initial_slots (fun i -> initial_slots - 1 - i);
      s_nfree = initial_slots;
      kv_batch = Kv_wire.batch ();
      reply_off = Array.make admission.a_batch_max 0;
      reply_len = Array.make admission.a_batch_max 0;
      kv_reply = Bytes.empty;
      kv_count = 0;
      kv_next = 0;
      idle = Machine.Idle;
      served = 0;
      bad_requests = 0;
      shed_queue = 0;
      shed_expired = 0;
      unservable = 0;
      batches = 0;
      batched_ops = 0;
    }
  in
  (* Boot: each worker preloads the static assets named in [preload]
     through its backend binding (the whole worker fleet reading through
     the big-locked FS is exactly the convoy the cache exists to avoid —
     paid once here, at startup), then blocks in recv before any traffic
     arrives, so the first deliveries take the cross-core IRQ path. *)
  Array.iter
    (fun w ->
      let cpu = Kernel.cpu kernel ~core:w.w_core in
      Kernel.context_switch kernel ~core:w.w_core w.w_proc;
      if file_cache then
        List.iter
          (fun name ->
            match w.w_binding.fs_read ~core:w.w_core ~name with
            | Some data -> cache_file w name data
            | None -> ())
          preload;
      Scheduler.block w.w_sched cpu w.w_thread;
      if w.w_core < Nic.n_queues nic then
        ignore
          (Notification.wait_blocking ~polls:0
             (Nic.irq nic ~queue:w.w_core)
             ~core:w.w_core)
      else
        ignore (Notification.wait_blocking ~polls:0 (Endpoint.note ep) ~core:w.w_core))
    workers;
  t

let served t = t.served
let bad_requests t = t.bad_requests
let dropped_packets t = Socket.dropped t.socks
let restarts t = Array.fold_left (fun a w -> a + w.w_restarts) 0 t.workers
let hangs t = Array.fold_left (fun a w -> a + w.w_hangs) 0 t.workers
let denials t = Array.fold_left (fun a w -> a + w.w_denied) 0 t.workers
let worker_served t i = t.workers.(i).w_served
let steals t = Endpoint.steals t.ep
let endpoint t = t.ep
let shed_queue t = t.shed_queue
let shed_expired t = t.shed_expired
let shed t = t.shed_queue + t.shed_expired
let unservable t = t.unservable
let batches t = t.batches
let batched_ops t = t.batched_ops
let current_deadline t ~core = t.deadlines.(core)
let slots_in_use t = Array.length t.s_off - t.s_nfree

(* ---- request handling ---- *)

let check_fault t w =
  match Fault.check ~core:w.w_core fault_site with
  | Some Fault.Crash -> raise Worker_crashed
  | Some Fault.Hang ->
    w.w_hangs <- w.w_hangs + 1;
    Kernel.user_compute t.kernel ~core:w.w_core ~cycles:hang_cycles
  | Some (Fault.Drop | Fault.Revoke | Fault.Ept_fault) | None -> ()

(* Send request [r]'s terminal response, serialized straight from its
   status and the [len] body bytes from [off], and free its slot. *)
let respond t ~core r ~status body ~off ~len =
  let cpu = Kernel.cpu t.kernel ~core in
  let wire = Http.response ~status body ~off ~len in
  Cpu.charge cpu (respond_base + (respond_per_byte * Bytes.length wire));
  Socket.reply t.socks t.s_conn.(r) ~core wire;
  free_slot t r

(* Shed one request with the typed 503: the load-shedding outcome the
   client's retry policy treats as backpressure, never as data loss. *)
let shed_reply t ~core ~counter r =
  (match counter with
  | `Queue -> t.shed_queue <- t.shed_queue + 1
  | `Expired -> t.shed_expired <- t.shed_expired + 1);
  Sky_trace.Trace.instant ~core ~cat:"web"
    (match counter with
    | `Queue -> "web.shed-queue"
    | `Expired -> "web.shed-expired");
  respond t ~core r ~status:503 Bytes.empty ~off:0 ~len:0

(* A binding raised [Denied]: record this worker in the request's mask.
   If every worker has now denied it, no receiver can ever serve it —
   terminate with a typed 403 (the counted-error outcome) instead of
   bouncing forever; otherwise hand it to the next receiver and back
   off the endpoint so the privileged peer drains it first. *)
let deny t w r =
  let core = w.w_core in
  let n = Array.length t.workers in
  w.w_denied <- w.w_denied + 1;
  let mask = t.s_denied.(r) lor (1 lsl core) in
  t.s_denied.(r) <- mask;
  if mask = (1 lsl n) - 1 then begin
    t.unservable <- t.unservable + 1;
    Sky_trace.Trace.instant ~core ~cat:"web" "web.unservable";
    respond t ~core r ~status:403 Bytes.empty ~off:0 ~len:0
  end
  else begin
    Sky_trace.Trace.instant ~core ~cat:"web" "web.denied-bounce";
    Endpoint.push t.ep ~core ~receiver:((core + 1) mod n) r;
    w.w_backoff <-
      Cpu.cycles (Kernel.cpu t.kernel ~core) + denial_backoff_cycles
  end

(* A served request's response; the dispatch that produced it is over,
   so the live deadline goes first. *)
let answer t w r ~status body ~off ~len =
  t.deadlines.(w.w_core) <- -1;
  respond t ~core:w.w_core r ~status body ~off ~len;
  w.w_served <- w.w_served + 1;
  t.served <- t.served + 1

let answer_empty t w r status = answer t w r ~status Bytes.empty ~off:0 ~len:0
let answer_body t w r body = answer t w r ~status:200 body ~off:0 ~len:(Bytes.length body)
let misaligned () = invalid_arg "Httpd: batch reply misaligned"

(* The batched crossing's reply to the next KV operation, in pop
   order. *)
let next_reply t =
  let i = t.kv_next in
  if i >= t.kv_count then misaligned ();
  t.kv_next <- i + 1;
  i

let serve_file t w r p ~off ~len =
  match if t.file_cache then cached p off len w.w_cache else raise Not_found with
  | data ->
    Kernel.user_compute t.kernel ~core:w.w_core
      ~cycles:(cache_hit_base + (Bytes.length data / 16));
    answer_body t w r data
  | exception Not_found -> (
    let name = Bytes.sub_string p off len in
    match w.w_binding.fs_read ~core:w.w_core ~name with
    | Some data ->
      if t.file_cache then cache_file w name data;
      answer_body t w r data
    | None -> answer_empty t w r 404)

(* Answer request [r] from its parse: through the binding, or from the
   batched crossing's replies while [kv_count > 0]. *)
let dispatch t w r =
  let core = w.w_core in
  let p = t.s_payload.(r) and sep = t.s_parse.(r) in
  let key_off = t.s_off.(r) + Http.prefix_len and n = Bytes.length p in
  if sep = invalid then answer_empty t w r 400
  else if sep = Http.fs_get then serve_file t w r p ~off:key_off ~len:(n - key_off)
  else if sep = Http.kv_get then begin
    if t.kv_count > 0 then begin
      let i = next_reply t in
      let len = t.reply_len.(i) in
      if len = Kv_wire.reply_stored then misaligned ()
      else if len = Kv_wire.reply_miss then answer_empty t w r 404
      else answer t w r ~status:200 t.kv_reply ~off:t.reply_off.(i) ~len
    end
    else
      let v = w.w_binding.kv_get ~core p ~key_off ~key_len:(n - key_off) in
      if Bytes.length v = 0 then answer_empty t w r 404 else answer_body t w r v
  end
  else
    let stored =
      if t.kv_count > 0 then
        t.reply_len.(next_reply t) = Kv_wire.reply_stored || misaligned ()
      else
        w.w_binding.kv_put ~core p ~key_off ~key_len:(sep - key_off) ~value_off:(sep + 1)
          ~value_len:(n - sep - 1)
    in
    if stored then answer_body t w r Http.stored
    else begin
      (* The store refused a new key (its table is full): a typed
         refusal, counted as the client counts it. *)
      t.unservable <- t.unservable + 1;
      answer_empty t w r 500
    end

(* Charge and parse each request of the batch, in order, into its slot;
   a malformed one stays [invalid], to be answered 400 in its turn. *)
let parse_all t w cpu =
  for i = 0 to w.w_nbatch - 1 do
    let r = w.w_batch.(i) in
    let p = t.s_payload.(r) and off = t.s_off.(r) in
    Cpu.charge cpu (parse_base + (parse_per_byte * (Bytes.length p - off)));
    t.s_parse.(r) <-
      (match Http.parse_request p ~off with
      | sep -> sep
      | exception Http.Bad_request _ ->
        t.bad_requests <- t.bad_requests + 1;
        invalid)
  done

(* A batch member the batched crossing carries: a parsed KV request. *)
let is_kv t r =
  let sep = t.s_parse.(r) in
  sep <> invalid && sep <> Http.fs_get

let rec kv_ops t w i n =
  if i >= w.w_nbatch then n else kv_ops t w (i + 1) (if is_kv t w.w_batch.(i) then n + 1 else n)

(* The tightest deadline among the batch's members, -1 for none. *)
let rec tightest t w i d =
  if i >= w.w_nbatch then d
  else
    let x = t.s_deadline.(w.w_batch.(i)) in
    tightest t w (i + 1) (if x >= 0 && (d < 0 || x < d) then x else d)

let add_op t r =
  let p = t.s_payload.(r) and sep = t.s_parse.(r) in
  let key_off = t.s_off.(r) + Http.prefix_len in
  if sep = Http.kv_get then
    Kv_wire.add_get t.kv_batch p ~key_off ~key_len:(Bytes.length p - key_off)
  else
    Kv_wire.add_put t.kv_batch p ~key_off ~key_len:(sep - key_off) p ~value_off:(sep + 1)
      ~value_len:(Bytes.length p - sep - 1)

(* Batched worker→backend hop: every KV operation of the batch in one
   crossing, under the tightest member deadline, its replies read in
   place by {!dispatch}. A [Denied] or [Expired] from the batched call,
   or a batch the store refused whole (no room for its new keys),
   falls back to the individual path so each request gets its own
   terminal outcome. A batch of one (every batch when [a_batch_max =
   1]) takes the individual path. *)
let batch_kv t w =
  let core = w.w_core in
  let ops = if w.w_nbatch < 2 then 0 else kv_ops t w 0 0 in
  if ops >= 2 then begin
    t.deadlines.(core) <- tightest t w 0 (-1);
    for i = 0 to w.w_nbatch - 1 do
      if is_kv t w.w_batch.(i) then add_op t w.w_batch.(i)
    done;
    match w.w_binding.kv_batch ~core (Kv_wire.batch_msg t.kv_batch) with
    | reply when Kv_wire.refused reply -> t.deadlines.(core) <- -1
    | reply ->
      t.deadlines.(core) <- -1;
      t.batches <- t.batches + 1;
      t.batched_ops <- t.batched_ops + ops;
      if Kv_wire.batch_replies reply ~off:t.reply_off ~len:t.reply_len <> ops then misaligned ();
      t.kv_reply <- reply;
      t.kv_count <- ops;
      t.kv_next <- 0
    | exception (Denied | Expired) -> t.deadlines.(core) <- -1
  end

(* Answer each parsed request in pop order: a response, a bounce on
   [Denied], or a 503 on [Expired]. *)
let reply_all t w =
  let core = w.w_core in
  for i = 0 to w.w_nbatch - 1 do
    let r = w.w_batch.(i) in
    t.deadlines.(core) <- t.s_deadline.(r);
    match dispatch t w r with
    | () -> ()
    | exception Denied ->
      t.deadlines.(core) <- -1;
      deny t w r
    | exception Expired ->
      t.deadlines.(core) <- -1;
      shed_reply t ~core ~counter:`Expired r
  done;
  t.kv_count <- 0;
  t.kv_reply <- Bytes.empty

(* Serve the worker's drained batch (singleton in the un-batched
   default). The crash point is before any reply, so a [Worker_crashed]
   escaping here parks the whole batch; everything after replies request
   by request, in pop order — per-connection response ordering is
   preserved. *)
let serve_batch t w =
  let core = w.w_core in
  let cpu = Kernel.cpu t.kernel ~core in
  (* The crash point: mid-request, after the packet left the ring. *)
  check_fault t w;
  Memsys.touch_range_state_only cpu Memsys.Insn ~pa:w.w_text_pa ~len:worker_text;
  parse_all t w cpu;
  batch_kv t w;
  reply_all t w

(* The span closure is built only when tracing is on. *)
let handle_batch t w =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core:w.w_core ~cat:"web" "web.serve" (fun () -> serve_batch t w)
  else serve_batch t w

(* Crash bookkeeping: park the in-flight batch, revoke the worker's
   bindings (they are re-established on restart — the PR 3 revoke/rebind
   machinery), and schedule the restart. *)
let crash t w =
  let core = w.w_core in
  let cpu = Kernel.cpu t.kernel ~core in
  Sky_trace.Trace.instant ~core ~cat:"web" "web.worker-crash";
  w.w_parked <- true;
  w.w_binding.revoke ~core;
  w.w_state <- Dead (Cpu.cycles cpu + restart_cycles);
  Scheduler.block w.w_sched cpu w.w_thread

let restart t w =
  let core = w.w_core in
  let cpu = Kernel.cpu t.kernel ~core in
  Sky_trace.Trace.instant ~core ~cat:"web" "web.worker-restart";
  (* Fresh worker image: cold caches for its text, fresh bindings, and
     an empty file cache — the restarted worker re-reads from the FS. *)
  w.w_cache <- [];
  Kernel.context_switch t.kernel ~core w.w_proc;
  Kernel.user_compute t.kernel ~core ~cycles:restart_cycles;
  w.w_binding.rebind ~core;
  w.w_state <- Running;
  w.w_restarts <- w.w_restarts + 1;
  Scheduler.wake w.w_sched cpu w.w_thread

let rec queues_done t nq q = q >= nq || (t.queue_done ~queue:q && queues_done t nq (q + 1))

(* The run is finished only globally: every NIC queue exhausted, the
   endpoint drained, nobody mid-restart with parked requests. Until
   then an idle worker must keep stepping — stolen work can appear on
   the endpoint at any time. *)
let finished t =
  queues_done t (Nic.n_queues t.nic) 0
  && Endpoint.pending t.ep = 0
  && Array.for_all
       (fun w -> (match w.w_state with Running -> true | Dead _ -> false) && not w.w_parked)
       t.workers

(* The RX ring whose head packet is due first, ties to the lowest queue
   (= the core that owns it: only the owner can drain it), or -1 when
   every ring is empty. A blocked worker uses it as its next-event time:
   with cross-core serving, a fast peer's replies can strand a ring
   owner's clock far above the laggard pack, and plain [Idle] only
   leapfrogs idle cores one cycle at a time — the run loop's idle guard
   trips long before the pack creeps up to the owner. *)
let rec earliest_ring t nq q best best_at =
  if q >= nq then best
  else
    let at = Nic.next_deliver_at t.nic ~queue:q in
    if at >= 0 && at < best_at then earliest_ring t nq (q + 1) q at
    else earliest_ring t nq (q + 1) best best_at

(* [Machine.Idle_until at], reusing the last one built while [at]
   repeats: blocked workers keep idling to the same packet. *)
let idle_until t at =
  match t.idle with
  | Machine.Idle_until a when a = at -> t.idle
  | _ ->
    let s = Machine.Idle_until at in
    t.idle <- s;
    s

(* Serve the worker's batch, popped or replayed: members whose deadline
   passed are shed up front, in order, and a crash parks the rest. *)
let serve t w =
  let now = Cpu.cycles (Kernel.cpu t.kernel ~core:w.w_core) in
  let live = ref 0 in
  for i = 0 to w.w_nbatch - 1 do
    let r = w.w_batch.(i) in
    let d = t.s_deadline.(r) in
    if d >= 0 && now > d then shed_reply t ~core:w.w_core ~counter:`Expired r
    else begin
      w.w_batch.(!live) <- r;
      incr live
    end
  done;
  w.w_nbatch <- !live;
  if !live > 0 then begin
    match handle_batch t w with
    | () -> ()
    | exception Worker_crashed -> crash t w
  end;
  Machine.Progress

(* ---- the per-core event loop, one quantum per call ---- *)

(* Admission of a demultiplexed request: stamp the deadline from the
   carried TTL (or the configured default) and bounce off a full target
   queue with a 503 before the request costs anything downstream. *)
let admit t ~core cpu =
  let payload = Socket.request_payload t.socks ~queue:core in
  let ttl = Http.ttl payload in
  let r = alloc_slot t in
  t.s_conn.(r) <- Socket.request_conn t.socks ~queue:core;
  t.s_payload.(r) <- payload;
  t.s_off.(r) <- (if ttl > 0 then Http.request_off payload else 0);
  t.s_deadline.(r) <-
    (if ttl > 0 then Cpu.cycles cpu + ttl
     else
       match t.admission.a_default_ttl with
       | Some n -> Cpu.cycles cpu + n
       | None -> -1);
  t.s_denied.(r) <- 0;
  t.s_parse.(r) <- invalid;
  if not (Endpoint.try_push t.ep ~core r) then shed_reply t ~core ~counter:`Queue r;
  Machine.Progress

(* The rest of a batch: up to [a_batch_max - n] more pops appended to
   the worker's batch in pop order; answers its new size. *)
let rec pop_more t w ~core n =
  if n >= t.admission.a_batch_max then n
  else
    let r = Endpoint.pop t.ep ~core ~recv:core in
    if r < 0 then n
    else begin
      w.w_batch.(n) <- r;
      pop_more t w ~core (n + 1)
    end

let step t ~core =
  let w = t.workers.(core) in
  let cpu = Kernel.cpu t.kernel ~core in
  match w.w_state with
  | Dead at ->
    if Cpu.cycles cpu >= at then begin
      restart t w;
      Machine.Progress
    end
    else idle_until t at
  | Running ->
    (* Replay requests parked by a crash before touching any queue. *)
    if w.w_parked then begin
      w.w_parked <- false;
      serve t w
    end
    else
      let has_queue = core < Nic.n_queues t.nic in
      if not (Scheduler.runnable w.w_thread) then begin
        (* Blocked in recv: wake on a pending RX IRQ (advancing to its
           delivery time) or on endpoint work pushed by a peer. Signals
           coalesce, so a peer may have consumed the wake word for an
           item that landed in our queue — the pending check catches
           that without a notification. *)
        let irq_wake =
          has_queue
          && (Notification.wait_blocking (Nic.irq t.nic ~queue:core) ~core <> 0
             || (* Level check: with cross-core serving a peer's reply can
                   land in our ring while the edge word is already consumed;
                   only the owner can drain it, so wake on occupancy too. *)
             Nic.rx_level t.nic ~queue:core > 0)
        in
        let ep_wake =
          (not irq_wake)
          && (Notification.wait_blocking ~polls:0 (Endpoint.note t.ep) ~core <> 0
             || Endpoint.pending t.ep > 0)
        in
        if irq_wake || ep_wake then begin
          Scheduler.wake w.w_sched cpu w.w_thread;
          Machine.Progress
        end
        else if finished t then Machine.Done
        else
          (* Ring events first; otherwise the generator's hint (an
             open-loop pump's next arrival), so a fully drained fleet
             sleeps to the next offered request instead of leapfrogging
             one cycle at a time into the run loop's deadlock guard. *)
          let q = earliest_ring t (Nic.n_queues t.nic) 0 (-1) max_int in
          if q >= 0 then begin
            let at = Nic.next_deliver_at t.nic ~queue:q and now = Cpu.cycles cpu in
            if at > now then idle_until t at
            else
              (* A packet already due on our clock sits in another
                 core's ring (a due head in our own ring wakes us via
                 the level check above). Only its owner can drain it; if
                 the owner's clock is ahead of us, park just past it in
                 one hop — the owner gets stepped the moment the rest of
                 the pack passes it, instead of everyone creeping up one
                 leapfrog at a time into the idle guard. *)
              let owner = Cpu.cycles (Kernel.cpu t.kernel ~core:q) in
              if owner >= now then idle_until t (owner + 1) else Machine.Idle
          end
          else
            let at = t.wire_hint () in
            if at > Cpu.cycles cpu then idle_until t at else Machine.Idle
      end
      else begin
        (* Route first, serve second: RSS only places packets in rings;
           the endpoint decides which worker serves. *)
        match
          if has_queue then Socket.service t.socks ~queue:core ~core
          else Socket.Nothing
        with
        | Socket.Accepted -> Machine.Progress
        | Socket.Request -> admit t ~core cpu
        | Socket.Nothing ->
          if Cpu.cycles cpu < w.w_backoff then
            (* Just bounced a denied request: stay off the endpoint so
               the privileged peer drains it instead of us re-stealing. *)
            idle_until t w.w_backoff
          else
            let r = Endpoint.pop t.ep ~core ~recv:core in
            if r < 0 then begin
              (* Ring and endpoint drained: back to recv. *)
              Scheduler.block w.w_sched cpu w.w_thread;
              Machine.Progress
            end
            else begin
              (* Drain up to [a_batch_max] requests for one quantum —
                 deep queues amortize the backend crossing, an empty
                 queue degenerates to the classic one-at-a-time loop. *)
              w.w_batch.(0) <- r;
              w.w_nbatch <- pop_more t w ~core 1;
              serve t w
            end
      end
