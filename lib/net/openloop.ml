(** Open-loop (Poisson-arrival) load generator on the wire side of the
    {!Nic} — the overload instrument.

    Where {!Loadgen} is closed-loop (each connection keeps one request
    outstanding, so offered load self-throttles to the service rate),
    this generator fires requests from a global Poisson process whose
    mean inter-arrival gap is configured {e independently} of how fast
    the server drains them. Past saturation the backlog grows without
    bound unless the server sheds — exactly the regime admission control
    exists for.

    Arrivals are spread uniformly over a fleet of {b tenants}. Each
    tenant pipelines through one connection at a time (so per-connection
    response ordering stays well-defined even under work-stealing and
    batching), queueing arrivals client-side while a request is in
    flight; latency is measured from the {e arrival}, not the injection,
    so client-side queueing is charged to the server — the
    coordinated-omission-free measurement. After [requests_per_conn]
    requests a tenant churns: the connection is retired and a fresh flow
    id (hunted onto the same RSS queue) opens a new one, so a long run
    exercises thousands of short-lived connections.

    Tenants read only {e provisioned} keys (warmed server-side before
    the run) and write only keys that are never read back, so a shed PUT
    can never make a later GET look corrupt: every admitted response is
    classified by {!Workload.classify} into goodput / shed / unservable
    / corrupt with no false positives under load shedding. A request
    whose packet finds the RX ring full is counted [shed_wire] (the
    NIC is the outermost admission controller) and its client-side slot
    is recycled immediately.

    Like {!Loadgen}, everything runs in the NIC's DMA hooks and costs
    the simulated cores nothing — except the arrival pump itself, which
    must be stepped by a dedicated (wire-side) core: {!step} injects all
    due arrivals and sleeps to the next one. *)

open Sky_sim

type tenant = {
  tn_id : int;
  tn_queue : int;  (** RSS queue every connection of this tenant lands on *)
  tn_rng : Rng.t;
  tn_keys : (string * bytes) array;  (** provisioned warm keys (read path) *)
  mutable tn_flow : int;
  mutable tn_seq : int;  (** next packet seq on the current connection *)
  mutable tn_conn_left : int;  (** requests before the connection churns *)
  mutable tn_writes : int;  (** write-only key counter *)
  mutable tn_busy : bool;  (** a request is in flight *)
  mutable tn_expect : Workload.expect;  (** what the in-flight one must produce *)
  mutable tn_arrival : int;  (** its arrival timestamp *)
  tn_backlog : int Queue.t;  (** arrival timestamps awaiting injection *)
}

type t = {
  nic : Nic.t;
  mix : Workload.mix;
  rtt : int;
  ttl : int option;  (** relative deadline stamped on every request *)
  requests_per_conn : int;
  files : (string * bytes) array;
  tenants : tenant array;
  by_flow : (int, tenant) Hashtbl.t;
  used : (int, unit) Hashtbl.t;  (** every flow id ever opened *)
  probe : int array;  (** per-queue flow-id hunt cursor (churn) *)
  remaining : int array;  (** unresolved requests per queue *)
  arrival_rng : Rng.t;
  mean_gap : int;
  total : int;
  hist : Sky_trace.Histogram.t;  (** arrival→response, goodput only *)
  mutable next_at : int;
  mutable offered : int;
  mutable ok : int;
  mutable shed : int;  (** 503 responses (queue-full / deadline) *)
  mutable shed_wire : int;  (** RX-ring-full drops at injection *)
  mutable unservable : int;  (** terminal 403s *)
  mutable corrupt : int;
  mutable responses : int;
  mutable churns : int;
}

let create nic ~seed ~mix ~tenants:ntenants ~requests_per_conn ~mean_gap
    ~total ~rtt ?ttl ~files ~keys () =
  if ntenants <= 0 then invalid_arg "Openloop.create: tenants";
  if requests_per_conn <= 0 then invalid_arg "Openloop.create: requests_per_conn";
  if mean_gap <= 0 then invalid_arg "Openloop.create: mean_gap";
  if total <= 0 then invalid_arg "Openloop.create: total";
  if Array.length keys <> ntenants then invalid_arg "Openloop.create: keys";
  let nq = Nic.n_queues nic in
  let flow_ids = Workload.place_flows nic ~conns:ntenants in
  let tenants =
    Array.mapi
      (fun i flow ->
        {
          tn_id = i;
          tn_queue = Nic.queue_of_flow nic flow;
          tn_rng = Rng.create ~seed:(seed + (i * 0x9e3779b9) + flow);
          tn_keys = keys.(i);
          tn_flow = flow;
          tn_seq = 0;
          tn_conn_left = requests_per_conn;
          tn_writes = 0;
          tn_busy = false;
          tn_expect = Workload.Stored;
          tn_arrival = 0;
          tn_backlog = Queue.create ();
        })
      flow_ids
  in
  let by_flow = Hashtbl.create (2 * ntenants) in
  let used = Hashtbl.create (4 * ntenants) in
  Array.iter
    (fun tn ->
      Hashtbl.replace by_flow tn.tn_flow tn;
      Hashtbl.replace used tn.tn_flow ())
    tenants;
  let top = Array.fold_left (fun a f -> Int.max a f) 0 flow_ids + 1 in
  {
    nic;
    mix;
    rtt;
    ttl;
    requests_per_conn;
    files;
    tenants;
    by_flow;
    used;
    probe = Array.make nq top;
    remaining = Array.make nq 0;
    arrival_rng = Rng.create ~seed:(seed lxor 0x0b3a10ad);
    mean_gap;
    total;
    hist = Sky_trace.Histogram.create ();
    next_at = 0;
    offered = 0;
    ok = 0;
    shed = 0;
    shed_wire = 0;
    unservable = 0;
    corrupt = 0;
    responses = 0;
    churns = 0;
  }

(* Hunt the next never-used flow id whose RSS hash lands on [queue] —
   how a real client fleet picks source ports. Never reusing an id keeps
   the server's per-flow sequence check honest across churn. *)
let fresh_flow t ~queue =
  let f = ref t.probe.(queue) in
  while Hashtbl.mem t.used !f || Nic.queue_of_flow t.nic !f <> queue do
    incr f
  done;
  t.probe.(queue) <- !f + 1;
  Hashtbl.replace t.used !f ();
  !f

(* Next request of [tn], its expectation left in [tn_expect]: GETs
   read only provisioned keys, PUTs write only keys no GET ever asks
   for — load shedding can drop any subset of requests without ever
   faking a corruption. *)
let next_request t tn =
  let { Workload.m_kv_get; m_kv_put; m_fs_get } = t.mix in
  let total = m_kv_get + m_kv_put + m_fs_get in
  let roll = Rng.int tn.tn_rng total in
  if roll < m_kv_get && Array.length tn.tn_keys > 0 then begin
    let key, value = tn.tn_keys.(Rng.int tn.tn_rng (Array.length tn.tn_keys)) in
    tn.tn_expect <- Workload.Value value;
    Http.Kv_get key
  end
  else if roll < m_kv_get + m_kv_put || Array.length t.files = 0 then begin
    let n = tn.tn_writes in
    tn.tn_writes <- n + 1;
    let key = Dec.tag "t" tn.tn_id "-w" n "" in
    tn.tn_expect <- Workload.Stored;
    Http.Kv_put (key, Workload.value_bytes tn.tn_rng tn.tn_id n)
  end
  else begin
    let name, data = t.files.(Rng.int tn.tn_rng (Array.length t.files)) in
    tn.tn_expect <- Workload.File data;
    Http.Fs_get name
  end

let rec inject t tn ~arrival ~at =
  if tn.tn_conn_left = 0 then begin
    (* Connection churn: retire the flow, open a fresh one (new SYN,
       seq restarts at 0) on the same RSS queue. *)
    Hashtbl.remove t.by_flow tn.tn_flow;
    tn.tn_flow <- fresh_flow t ~queue:tn.tn_queue;
    tn.tn_seq <- 0;
    tn.tn_conn_left <- t.requests_per_conn;
    t.churns <- t.churns + 1;
    Hashtbl.replace t.by_flow tn.tn_flow tn
  end;
  let payload = Http.serialize_request (next_request t tn) in
  let payload =
    match t.ttl with Some n -> Http.with_ttl ~ttl:n payload | None -> payload
  in
  let before = Nic.dropped t.nic in
  Nic.deliver t.nic ~flow:tn.tn_flow ~seq:tn.tn_seq ~payload ~at;
  if Nic.dropped t.nic > before then begin
    (* RX ring full — the NIC shed it. The seq was never consumed, so
       the server's ordering check stays intact; recycle the slot. *)
    t.shed_wire <- t.shed_wire + 1;
    t.remaining.(tn.tn_queue) <- t.remaining.(tn.tn_queue) - 1;
    pump t tn ~at
  end
  else begin
    tn.tn_seq <- tn.tn_seq + 1;
    tn.tn_conn_left <- tn.tn_conn_left - 1;
    tn.tn_busy <- true;
    tn.tn_arrival <- arrival
  end

and pump t tn ~at =
  match Queue.take_opt tn.tn_backlog with
  | Some arrival -> inject t tn ~arrival ~at
  | None -> ()

(* TX-completion hook: classify the response against what the in-flight
   request should produce, then feed the tenant's next queued arrival. *)
let on_response t ~flow ~payload ~deliver_at =
  match Hashtbl.find t.by_flow flow with
  | exception Not_found -> t.corrupt <- t.corrupt + 1
  | tn ->
    if not tn.tn_busy then t.corrupt <- t.corrupt + 1
    else begin
      tn.tn_busy <- false;
      t.responses <- t.responses + 1;
      t.remaining.(tn.tn_queue) <- t.remaining.(tn.tn_queue) - 1;
      (match Http.parse_response payload with
      | resp -> (
        match Workload.classify tn.tn_expect resp with
        | Workload.Good ->
          t.ok <- t.ok + 1;
          Sky_trace.Histogram.add t.hist (deliver_at - tn.tn_arrival)
        | Workload.Shed -> t.shed <- t.shed + 1
        | Workload.Unservable -> t.unservable <- t.unservable + 1
        | Workload.Corrupt -> t.corrupt <- t.corrupt + 1)
      | exception Http.Bad_request _ -> t.corrupt <- t.corrupt + 1);
      pump t tn ~at:(deliver_at + t.rtt)
    end

(* Fire one arrival of the global Poisson process: route it to a
   uniformly random tenant (inject now if the tenant is idle, else queue
   client-side) and draw the next exponential gap. *)
let fire t =
  let at = t.next_at in
  t.offered <- t.offered + 1;
  let tn = t.tenants.(Rng.int t.arrival_rng (Array.length t.tenants)) in
  t.remaining.(tn.tn_queue) <- t.remaining.(tn.tn_queue) + 1;
  if (not tn.tn_busy) && Queue.is_empty tn.tn_backlog then
    inject t tn ~arrival:at ~at
  else Queue.add at tn.tn_backlog;
  let u = Rng.float t.arrival_rng in
  let gap = int_of_float (ceil (-.log (1. -. u) *. float_of_int t.mean_gap)) in
  t.next_at <- at + Int.max 1 gap

let start t ~at =
  Nic.set_on_tx t.nic (on_response t);
  t.next_at <- at

let step t ~now =
  if t.offered >= t.total then Sky_sim.Machine.Done
  else if t.next_at > now then Sky_sim.Machine.Idle_until t.next_at
  else begin
    while t.next_at <= now && t.offered < t.total do
      fire t
    done;
    Sky_sim.Machine.Progress
  end

let next_event t = if t.offered < t.total then Some t.next_at else None
let queue_done t ~queue = t.offered >= t.total && t.remaining.(queue) = 0

let finished t =
  t.offered >= t.total && Array.for_all (fun r -> r = 0) t.remaining

let offered t = t.offered
let responses t = t.responses
let ok t = t.ok
let shed t = t.shed
let shed_wire t = t.shed_wire
let unservable t = t.unservable
let corrupt t = t.corrupt
let errors t = t.unservable + t.corrupt
let churns t = t.churns
let latencies t = t.hist
let tenants t = Array.length t.tenants
