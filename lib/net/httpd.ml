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
    a TTL ([Http.with_ttl]); the ring owner stamps an absolute deadline
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

(* One KV operation / reply of a batched worker→backend crossing. *)
type kv_op = Kv_wire.op
type kv_reply = Kv_wire.reply

(* Typed backend bindings, one set per worker. The closures capture the
   worker's process and transport (SkyBridge direct calls — possibly
   URI-routed through the mesh — or baseline kernel IPC);
   [revoke]/[rebind] tear down and re-establish the worker's server
   bindings around a crash. [kv_batch] carries a whole list of KV
   operations in one backend crossing. *)
type binding = {
  kv_put : core:int -> key:string -> value:bytes -> bool;
  kv_get : core:int -> key:string -> bytes option;
  fs_read : core:int -> name:string -> bytes option;
  kv_batch : core:int -> kv_op list -> kv_reply list;
  revoke : core:int -> unit;
  rebind : core:int -> unit;
}

(* A demultiplexed request riding the endpoint: the deadline is absolute
   (stamped by the ring owner), the denied mask accumulates the workers
   that bounced it so denial-by-all terminates instead of looping. *)
type req = {
  rq_conn : Socket.conn;
  rq_payload : bytes;
  rq_deadline : int option;
  mutable rq_denied : int;
  mutable rq_request : Http.request;
      (** the parse, meaningful once [rq_valid] is set by the worker *)
  mutable rq_valid : bool;
}

(* [rq_request] until the worker parses the payload. *)
let unparsed = Http.Fs_get ""

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
  w_cache : (string, bytes) Hashtbl.t;
      (** static-file cache: xv6fs is hit only on cold misses (the
          big-locked FS would otherwise convoy every worker, §8.1);
          wiped when the worker crashes, like any process-local state *)
  mutable w_state : worker_state;
  mutable w_inflight : req list;
      (** requests being served when the worker crashed — replayed *)
  mutable w_served : int;
  mutable w_restarts : int;
  mutable w_hangs : int;
  mutable w_denied : int;  (** requests bounced to a peer on Denied *)
  mutable w_backoff : int;
      (** no endpoint pops before this cycle (set on a denial) *)
  mutable w_fs_cold : int;  (** cache misses served through the FS *)
}

type t = {
  kernel : Kernel.t;
  nic : Nic.t;
  socks : Socket.t;
  workers : worker array;
  ep : req Endpoint.t;
      (** the routing mechanism: every parsed request goes through here *)
  file_cache : bool;
  admission : admission;
  deadlines : int option array;
      (** per-core live deadline while a request is dispatched — what the
          binding's deadline-propagation wrapper reads *)
  wire_hint : unit -> int option;
      (** next known future wire event beyond the rings (an open-loop
          generator's next arrival) — lets idle workers sleep to it *)
  queue_done : queue:int -> bool;
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

let create ?(preload = []) ?(file_cache = true) ?(admission = no_admission)
    ?(wire_hint = fun () -> None) kernel nic ~workers:procs ~queue_done =
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
          w_cache = Hashtbl.create 16;
          w_state = Running;
          w_inflight = [];
          w_served = 0;
          w_restarts = 0;
          w_hangs = 0;
          w_denied = 0;
          w_backoff = 0;
          w_fs_cold = 0;
        })
  in
  let t =
    {
      kernel;
      nic;
      socks;
      workers;
      ep;
      file_cache;
      admission;
      deadlines = Array.make n None;
      wire_hint;
      queue_done;
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
            | Some data ->
              w.w_fs_cold <- w.w_fs_cold + 1;
              Hashtbl.replace w.w_cache name data
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
let fs_cold t = Array.fold_left (fun a w -> a + w.w_fs_cold) 0 t.workers
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

(* ---- request handling ---- *)

let check_fault t w =
  match Fault.check ~core:w.w_core fault_site with
  | Some Fault.Crash -> raise Worker_crashed
  | Some Fault.Hang ->
    w.w_hangs <- w.w_hangs + 1;
    Kernel.user_compute t.kernel ~core:w.w_core ~cycles:hang_cycles
  | Some (Fault.Drop | Fault.Revoke | Fault.Ept_fault) | None -> ()

let respond t ~core conn response =
  let cpu = Kernel.cpu t.kernel ~core in
  let wire = Http.serialize_response response in
  Cpu.charge cpu (respond_base + (respond_per_byte * Bytes.length wire));
  Socket.reply t.socks conn ~core wire

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
  respond t ~core r.rq_conn Http.service_unavailable

(* A binding raised [Denied]: record this worker in the request's mask.
   If every worker has now denied it, no receiver can ever serve it —
   terminate with a typed 403 (the counted-error outcome) instead of
   bouncing forever; otherwise hand it to the next receiver and back
   off the endpoint so the privileged peer drains it first. *)
let deny t w r =
  let core = w.w_core in
  let n = Array.length t.workers in
  w.w_denied <- w.w_denied + 1;
  r.rq_denied <- r.rq_denied lor (1 lsl core);
  if r.rq_denied = (1 lsl n) - 1 then begin
    t.unservable <- t.unservable + 1;
    Sky_trace.Trace.instant ~core ~cat:"web" "web.unservable";
    respond t ~core r.rq_conn Http.forbidden
  end
  else begin
    Sky_trace.Trace.instant ~core ~cat:"web" "web.denied-bounce";
    Endpoint.push t.ep ~core ~receiver:((core + 1) mod n) r;
    w.w_backoff <-
      Cpu.cycles (Kernel.cpu t.kernel ~core) + denial_backoff_cycles
  end

let dispatch t w kv_replies pr =
  let core = w.w_core in
  let misaligned () = invalid_arg "Httpd: batch reply misaligned" in
  match pr with
  | Http.Kv_put (key, value) ->
    let stored =
      match kv_replies with
      | Some q -> (
        match Queue.pop q with
        | Kv_wire.R_stored ok -> ok
        | Kv_wire.R_value _ -> misaligned ())
      | None -> w.w_binding.kv_put ~core ~key ~value
    in
    if stored then Http.stored else Http.server_error
  | Http.Kv_get key -> (
    let value =
      match kv_replies with
      | Some q -> (
        match Queue.pop q with
        | Kv_wire.R_value v -> v
        | Kv_wire.R_stored _ -> misaligned ())
      | None -> w.w_binding.kv_get ~core ~key
    in
    match value with Some v -> Http.ok v | None -> Http.not_found)
  | Http.Fs_get name -> (
    match if t.file_cache then Hashtbl.find_opt w.w_cache name else None with
    | Some data ->
      Kernel.user_compute t.kernel ~core
        ~cycles:(cache_hit_base + (Bytes.length data / 16));
      Http.ok data
    | None -> (
      match w.w_binding.fs_read ~core ~name with
      | Some data ->
        w.w_fs_cold <- w.w_fs_cold + 1;
        if t.file_cache then Hashtbl.replace w.w_cache name data;
        Http.ok data
      | None -> Http.not_found))

(* Charge and parse each request of a batch, in order, into the request
   itself; a malformed one stays invalid, to be answered 400 in its
   turn. *)
let rec parse_all t cpu = function
  | [] -> ()
  | r :: rest ->
    Cpu.charge cpu (parse_base + (parse_per_byte * Bytes.length r.rq_payload));
    (match Http.parse_request r.rq_payload with
    | pr ->
      r.rq_request <- pr;
      r.rq_valid <- true
    | exception Http.Bad_request _ -> t.bad_requests <- t.bad_requests + 1);
    parse_all t cpu rest

(* Answer each parsed request in pop order: a response, a bounce on
   [Denied], or a 503 on [Expired]. *)
let rec reply_all t w kv_replies = function
  | [] -> ()
  | r :: rest ->
    let core = w.w_core in
    t.deadlines.(core) <- r.rq_deadline;
    (match
       if r.rq_valid then dispatch t w kv_replies r.rq_request else Http.bad_request
     with
    | response ->
      t.deadlines.(core) <- None;
      respond t ~core r.rq_conn response;
      w.w_served <- w.w_served + 1;
      t.served <- t.served + 1
    | exception Denied ->
      t.deadlines.(core) <- None;
      deny t w r
    | exception Expired ->
      t.deadlines.(core) <- None;
      shed_reply t ~core ~counter:`Expired r);
    reply_all t w kv_replies rest

(* Serve a drained batch (singleton in the un-batched default). The
   crash point is before any reply, so a [Worker_crashed] escaping here
   parks the whole batch; everything after replies request by request,
   in pop order — per-connection response ordering is preserved. *)
let serve_batch t w reqs =
  let core = w.w_core in
  let cpu = Kernel.cpu t.kernel ~core in
  (* The crash point: mid-request, after the packet left the ring. *)
  check_fault t w;
  Memsys.touch_range_state_only cpu Memsys.Insn ~pa:w.w_text_pa ~len:worker_text;
  parse_all t cpu reqs;
  (* Batched worker→backend hop: every KV operation of the batch in
     one crossing, under the tightest member deadline. A [Denied] or
     [Expired] from the batched call falls back to the individual
     path so each request gets its own terminal outcome. A batch of one
     (every batch when [a_batch_max = 1]) takes the individual path. *)
  let kv_replies =
    if List.length reqs < 2 then None
    else
      let ops =
        List.filter_map
          (fun r ->
            if not r.rq_valid then None
            else
              match r.rq_request with
              | Http.Kv_put (key, value) -> Some (Kv_wire.Op_put (key, value))
              | Http.Kv_get key -> Some (Kv_wire.Op_get key)
              | Http.Fs_get _ -> None)
          reqs
      in
      if List.length ops < 2 then None
      else begin
        t.deadlines.(core) <-
          List.fold_left
            (fun acc r ->
              match (r.rq_deadline, acc) with
              | None, a -> a
              | Some d, None -> Some d
              | Some d, Some a -> Some (Int.min d a))
            None reqs;
        match w.w_binding.kv_batch ~core ops with
        | replies ->
          t.deadlines.(core) <- None;
          t.batches <- t.batches + 1;
          t.batched_ops <- t.batched_ops + List.length ops;
          let q = Queue.create () in
          List.iter (fun rep -> Queue.add rep q) replies;
          Some q
        | exception (Denied | Expired) ->
          t.deadlines.(core) <- None;
          None
      end
  in
  reply_all t w kv_replies reqs

(* The span closure is built only when tracing is on. *)
let handle_batch t w reqs =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core:w.w_core ~cat:"web" "web.serve" (fun () ->
        serve_batch t w reqs)
  else serve_batch t w reqs

(* Crash bookkeeping: park the in-flight requests, revoke the worker's
   bindings (they are re-established on restart — the PR 3 revoke/rebind
   machinery), and schedule the restart. *)
let crash t w ~inflight =
  let core = w.w_core in
  let cpu = Kernel.cpu t.kernel ~core in
  Sky_trace.Trace.instant ~core ~cat:"web" "web.worker-crash";
  w.w_inflight <- inflight;
  w.w_binding.revoke ~core;
  w.w_state <- Dead (Cpu.cycles cpu + restart_cycles);
  Scheduler.block w.w_sched cpu w.w_thread

let restart t w =
  let core = w.w_core in
  let cpu = Kernel.cpu t.kernel ~core in
  Sky_trace.Trace.instant ~core ~cat:"web" "web.worker-restart";
  (* Fresh worker image: cold caches for its text, fresh bindings, and
     an empty file cache — the restarted worker re-reads from the FS. *)
  Hashtbl.reset w.w_cache;
  Kernel.context_switch t.kernel ~core w.w_proc;
  Kernel.user_compute t.kernel ~core ~cycles:restart_cycles;
  w.w_binding.rebind ~core;
  w.w_state <- Running;
  w.w_restarts <- w.w_restarts + 1;
  Scheduler.wake w.w_sched cpu w.w_thread

(* The run is finished only globally: every NIC queue exhausted, the
   endpoint drained, nobody mid-restart with parked requests. Until
   then an idle worker must keep stepping — stolen work can appear on
   the endpoint at any time. *)
let finished t =
  let nq = Nic.n_queues t.nic in
  let rec queues_done q = q >= nq || (t.queue_done ~queue:q && queues_done (q + 1)) in
  queues_done 0
  && Endpoint.pending t.ep = 0
  && Array.for_all
       (fun w ->
         (match w.w_state with Running -> true | Dead _ -> false)
         && w.w_inflight = [])
       t.workers

(* Earliest packet timestamp still sitting in any RX ring, and the ring
   it sits in (= the core that owns it: only the owner can drain it). A
   blocked worker uses it as its next-event time: with cross-core
   serving, a fast peer's replies can strand a ring owner's clock far
   above the laggard pack, and plain [Idle] only leapfrogs idle cores
   one cycle at a time — the run loop's idle guard trips long before the
   pack creeps up to the owner. *)
let next_wire_event t =
  let best = ref None in
  for q = 0 to Nic.n_queues t.nic - 1 do
    match Nic.next_deliver_at t.nic ~queue:q with
    | Some at -> (
      match !best with
      | Some (_, b) when b <= at -> ()
      | _ -> best := Some (q, at))
    | None -> ()
  done;
  !best

(* Serve a batch of popped (or replayed) requests: expired members are
   shed up front, a crash parks whatever was not yet replied. *)
let rec live_members t w now = function
  | [] -> []
  | r :: rest -> (
    match r.rq_deadline with
    | Some d when now > d ->
      shed_reply t ~core:w.w_core ~counter:`Expired r;
      live_members t w now rest
    | _ -> r :: live_members t w now rest)

let rec all_live now = function
  | [] -> true
  | r :: rest -> (
    match r.rq_deadline with Some d when now > d -> false | _ -> all_live now rest)

let serve t w reqs =
  let now = Cpu.cycles (Kernel.cpu t.kernel ~core:w.w_core) in
  let live = if all_live now reqs then reqs else live_members t w now reqs in
  if live = [] then Machine.Progress
  else
    match handle_batch t w live with
    | () -> Machine.Progress
    | exception Worker_crashed ->
      crash t w ~inflight:live;
      Machine.Progress

(* ---- the per-core event loop, one quantum per call ---- *)

(* The rest of a batch: up to [a_batch_max - n] more pops, in pop
   order. *)
let rec pop_more t ~core n =
  if n >= t.admission.a_batch_max then []
  else
    match Endpoint.pop t.ep ~core ~recv:core with
    | Some r -> r :: pop_more t ~core (n + 1)
    | None -> []

let step t ~core =
  let w = t.workers.(core) in
  let cpu = Kernel.cpu t.kernel ~core in
  match w.w_state with
  | Dead at ->
    if Cpu.cycles cpu >= at then begin
      restart t w;
      Machine.Progress
    end
    else Machine.Idle_until at
  | Running -> (
    (* Replay requests parked by a crash before touching any queue. *)
    match w.w_inflight with
    | _ :: _ as parked ->
      w.w_inflight <- [];
      serve t w parked
    | [] ->
      let has_queue = core < Nic.n_queues t.nic in
      if not (Scheduler.runnable w.w_thread) then begin
        (* Blocked in recv: wake on a pending RX IRQ (advancing to its
           delivery time) or on endpoint work pushed by a peer. Signals
           coalesce, so a peer may have consumed the wake word for an
           item that landed in our queue — the pending check catches
           that without a notification. *)
        let irq_wake =
          has_queue
          && (Notification.wait_blocking (Nic.irq t.nic ~queue:core) ~core
              <> None
             || (* Level check: with cross-core serving a peer's reply can
                   land in our ring while the edge word is already consumed;
                   only the owner can drain it, so wake on occupancy too. *)
             Nic.rx_level t.nic ~queue:core > 0)
        in
        let ep_wake =
          (not irq_wake)
          && (Notification.wait_blocking ~polls:0 (Endpoint.note t.ep) ~core
              <> None
             || Endpoint.pending t.ep > 0)
        in
        if irq_wake || ep_wake then begin
          Scheduler.wake w.w_sched cpu w.w_thread;
          Machine.Progress
        end
        else if finished t then Machine.Done
        else (
          (* Ring events first; otherwise the generator's hint (an
             open-loop pump's next arrival), so a fully drained fleet
             sleeps to the next offered request instead of leapfrogging
             one cycle at a time into the run loop's deadlock guard. *)
          match next_wire_event t with
          | Some (q, at) ->
            let now = Cpu.cycles cpu in
            if at > now then Machine.Idle_until at
            else
              (* A packet already due on our clock sits in another
                 core's ring (a due head in our own ring wakes us via
                 the level check above). Only its owner can drain it; if
                 the owner's clock is ahead of us, park just past it in
                 one hop — the owner gets stepped the moment the rest of
                 the pack passes it, instead of everyone creeping up one
                 leapfrog at a time into the idle guard. *)
              let owner = Cpu.cycles (Kernel.cpu t.kernel ~core:q) in
              if owner >= now then Machine.Idle_until (owner + 1)
              else Machine.Idle
          | None -> (
            match t.wire_hint () with
            | Some at when at > Cpu.cycles cpu -> Machine.Idle_until at
            | Some _ | None -> Machine.Idle))
      end
      else begin
        (* Route first, serve second: RSS only places packets in rings;
           the endpoint decides which worker serves. *)
        match
          if has_queue then Socket.service t.socks ~queue:core ~core
          else Socket.Nothing
        with
        | Socket.Accepted _ -> Machine.Progress
        | Socket.Request ->
          (* Admission: stamp the deadline from the carried TTL (or the
             configured default) and bounce off a full target queue with
             a 503 before the request costs anything downstream. *)
          let payload = Socket.request_payload t.socks ~queue:core in
          let ttl = Http.ttl payload in
          let deadline =
            if ttl > 0 then Some (Cpu.cycles cpu + ttl)
            else
              match t.admission.a_default_ttl with
              | Some n -> Some (Cpu.cycles cpu + n)
              | None -> None
          in
          let r =
            {
              rq_conn = Socket.request_conn t.socks ~queue:core;
              rq_payload = (if ttl > 0 then Http.strip_ttl payload else payload);
              rq_deadline = deadline;
              rq_denied = 0;
              rq_request = unparsed;
              rq_valid = false;
            }
          in
          if Endpoint.try_push t.ep ~core r then Machine.Progress
          else begin
            shed_reply t ~core ~counter:`Queue r;
            Machine.Progress
          end
        | Socket.Nothing -> (
          if Cpu.cycles cpu < w.w_backoff then
            (* Just bounced a denied request: stay off the endpoint so
               the privileged peer drains it instead of us re-stealing. *)
            Machine.Idle_until w.w_backoff
          else
            match Endpoint.pop t.ep ~core ~recv:core with
            | Some r ->
              (* Drain up to [a_batch_max] requests for one quantum —
                 deep queues amortize the backend crossing, an empty
                 queue degenerates to the classic one-at-a-time loop. *)
              serve t w (r :: pop_more t ~core 1)
            | None ->
              (* Ring and endpoint drained: back to recv. *)
              Scheduler.block w.w_sched cpu w.w_thread;
              Machine.Progress)
      end)
