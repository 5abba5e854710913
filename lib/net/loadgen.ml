(** The load generator on the wire side of the {!Nic}: a fleet of
    clients one RTT away, under closed or open arrivals.

    One connection record, one injection path, one TX hook and one
    response classification serve both arrival processes. The mode is
    matched only where arrivals are scheduled and where requests are
    built: the keyspace belongs to the arrival process, because shedding
    may drop any PUT, so open arrivals never read their own writes. *)

open Sky_sim

type mix = { m_kv_get : int; m_kv_put : int; m_fs_get : int }

let default_mix = { m_kv_get = 6; m_kv_put = 2; m_fs_get = 2 }

type arrivals =
  | Closed
  | Open of {
      mean_gap : int;
      total : int;
      ttl : int option;
      keys : (string * bytes) array array;
    }

type conn = {
  c_id : int;
  c_queue : int;  (** RSS queue every flow of this connection lands on *)
  c_rng : Rng.t;
  c_backlog : int Queue.t;  (** arrival timestamps awaiting injection *)
  mutable c_flow : int;
  mutable c_seq : int;  (** next packet seq on the current flow *)
  mutable c_left : int;  (** deliveries before the flow churns *)
  mutable c_sent : int;  (** requests built *)
  mutable c_writes : int;  (** PUTs built *)
  mutable c_busy : bool;  (** a request is in flight *)
  mutable c_expect : bytes;
      (** the body the in-flight one must produce: {!Http.stored} for a
          PUT, the stored value or the file's contents for a GET *)
  mutable c_arrival : int;  (** its arrival timestamp *)
  mutable c_keys : string array;
      (** readable keys: [Open]'s provisioned ones, or [Closed]'s own
          writes, oldest first *)
  mutable c_values : bytes array;  (** their values, parallel to [c_keys] *)
  mutable c_nkeys : int;  (** live prefix of [c_keys] *)
}

type t = {
  nic : Nic.t;
  mix : mix;
  rtt : int;
  requests_per_conn : int;
  files : (string * bytes) array;
  arrivals : arrivals;
  ttl : int;  (** [Open]'s relative deadline per request, -1 for none *)
  total : int;
  conns : conn array;
  by_flow : (int, conn) Hashtbl.t;
  probe : int array;  (** per-queue fresh-flow hunt cursor (churn) *)
  remaining : int array;  (** offered, unresolved requests per queue *)
  pump : Rng.t;
  hist : Sky_trace.Histogram.t;
  mutable next_at : int;
  mutable offered : int;
  mutable responses : int;
  mutable ok : int;
  mutable shed : int;
  mutable shed_wire : int;
  mutable unservable : int;
  mutable corrupt : int;
  mutable churns : int;
}

(* ["v<id>-<n>:"] then 32 printable pad bytes (so hexdumps stay
   readable), one [Rng.int _ 256] draw per pad byte as [Rng.bytes]
   draws them, written in place. *)
let value_bytes rng id n =
  let head = Dec.length id + Dec.length n + 3 in
  let v = Bytes.create (head + 32) in
  Bytes.set v 0 'v';
  let off = Dec.blit id v 1 in
  Bytes.set v off '-';
  Bytes.set v (Dec.blit n v (off + 1)) ':';
  for i = head to head + 31 do
    Bytes.set v i (Char.chr (97 + (Rng.int rng 256 land 15)))
  done;
  v

let create nic ~seed ~mix ~conns ~requests_per_conn ~rtt ~files arrivals =
  if conns <= 0 then invalid_arg "Loadgen.create: conns";
  if requests_per_conn <= 0 then invalid_arg "Loadgen.create: requests_per_conn";
  let total, ttl =
    match arrivals with
    | Closed -> (conns * requests_per_conn, -1)
    | Open { mean_gap; total; keys; ttl } ->
      if mean_gap <= 0 then invalid_arg "Loadgen.create: mean_gap";
      if total <= 0 then invalid_arg "Loadgen.create: total";
      if Array.length keys <> conns then invalid_arg "Loadgen.create: keys";
      let ttl =
        match ttl with
        | Some n when n <= 0 -> invalid_arg "Loadgen.create: ttl"
        | Some n -> n
        | None -> -1
      in
      (total, ttl)
  in
  let nq = Nic.n_queues nic in
  (* Connection [i]'s flow: the next id whose RSS hash lands on queue
     [i mod nq], scanned deterministically. *)
  let rec hunt f q = if Nic.queue_of_flow nic f = q then f else hunt (f + 1) q in
  let next = ref 1 in
  let conns =
    Array.init conns (fun i ->
        let flow = hunt !next (i mod nq) in
        next := flow + 1;
        let keys = match arrivals with Closed -> [||] | Open { keys; _ } -> keys.(i) in
        {
          c_id = i;
          c_queue = i mod nq;
          c_rng = Rng.create ~seed:(seed + (i * 0x9e3779b9) + flow);
          c_backlog = Queue.create ();
          c_flow = flow;
          c_seq = 0;
          c_left = requests_per_conn;
          c_sent = 0;
          c_writes = 0;
          c_busy = false;
          c_expect = Http.stored;
          c_arrival = 0;
          c_keys = Array.map fst keys;
          c_values = Array.map snd keys;
          c_nkeys = Array.length keys;
        })
  in
  let by_flow = Hashtbl.create (2 * Array.length conns) in
  Array.iter (fun c -> Hashtbl.replace by_flow c.c_flow c) conns;
  {
    nic;
    mix;
    rtt;
    requests_per_conn;
    files;
    arrivals;
    ttl;
    total;
    conns;
    by_flow;
    probe = Array.make nq !next;
    remaining = Array.make nq 0;
    pump = Rng.create ~seed:(seed lxor 0x0b3a10ad);
    hist = Sky_trace.Histogram.create ();
    next_at = 0;
    offered = 0;
    responses = 0;
    ok = 0;
    shed = 0;
    shed_wire = 0;
    unservable = 0;
    corrupt = 0;
    churns = 0;
  }

(* The wire bytes of a PUT of the connection's next write. [Closed]
   appends it to the keys it reads back (capacity doubles, so a request
   copies no list); [Open] writes a key no GET asks for. *)
let put t c =
  let n = c.c_writes in
  c.c_writes <- n + 1;
  c.c_expect <- Http.stored;
  match t.arrivals with
  | Closed ->
    let key = Dec.tag "f" c.c_flow "-k" n "" in
    let value = value_bytes c.c_rng c.c_flow c.c_sent in
    let i = c.c_nkeys in
    if i = Array.length c.c_keys then begin
      let cap = Int.max 4 (2 * i) in
      c.c_keys <- Array.append c.c_keys (Array.make (cap - i) "");
      c.c_values <- Array.append c.c_values (Array.make (cap - i) Bytes.empty)
    end;
    c.c_keys.(i) <- key;
    c.c_values.(i) <- value;
    c.c_nkeys <- i + 1;
    Http.kv_put_request ~ttl:t.ttl key value
  | Open _ ->
    let value = value_bytes c.c_rng c.c_id n in
    Http.kv_put_request ~ttl:t.ttl (Dec.tag "t" c.c_id "-w" n "") value

(* The wire bytes of connection [c]'s next request, its expectation
   left in [c_expect]. [Closed] opens with a PUT, seeding the keyspace
   it reads back, and reads newest first; then the mix weights decide,
   a GET falling back to PUT while there is nothing to read. *)
let next_request t c =
  let n = c.c_nkeys in
  match t.arrivals with
  | Closed when n = 0 -> put t c
  | arrivals ->
    let { m_kv_get; m_kv_put; m_fs_get } = t.mix in
    let roll = Rng.int c.c_rng (m_kv_get + m_kv_put + m_fs_get) in
    let nfiles = Array.length t.files in
    if roll < m_kv_get && n > 0 then begin
      let i =
        match arrivals with
        | Closed -> n - 1 - Rng.int c.c_rng n
        | Open _ -> Rng.int c.c_rng n
      in
      c.c_expect <- c.c_values.(i);
      Http.kv_get_request ~ttl:t.ttl c.c_keys.(i)
    end
    else if roll < m_kv_get + m_kv_put || nfiles = 0 then put t c
    else begin
      let name, data = t.files.(Rng.int c.c_rng nfiles) in
      c.c_expect <- data;
      Http.fs_get_request ~ttl:t.ttl name
    end

(* Retire the connection's flow and open a fresh one (new SYN, seq
   restarts at 0) on the same RSS queue. The per-queue cursor starts
   above every placed flow and climbs past each id it hands out, so no
   flow id is ever reused and the server's per-flow sequence check
   stays honest. *)
let churn t c =
  let q = c.c_queue in
  let f = ref t.probe.(q) in
  while Nic.queue_of_flow t.nic !f <> q do
    incr f
  done;
  t.probe.(q) <- !f + 1;
  Hashtbl.remove t.by_flow c.c_flow;
  c.c_flow <- !f;
  c.c_seq <- 0;
  c.c_left <- t.requests_per_conn;
  t.churns <- t.churns + 1;
  Hashtbl.replace t.by_flow !f c

let rec inject t c ~arrival ~at =
  if c.c_left = 0 then churn t c;
  let payload = next_request t c in
  c.c_sent <- c.c_sent + 1;
  let before = Nic.dropped t.nic in
  Nic.deliver t.nic ~flow:c.c_flow ~seq:c.c_seq ~payload ~at;
  if Nic.dropped t.nic > before then begin
    (* RX ring full: the NIC shed it. The seq was never consumed, so
       the server's ordering check stays intact. *)
    t.shed_wire <- t.shed_wire + 1;
    resolve t c ~at
  end
  else begin
    c.c_seq <- c.c_seq + 1;
    c.c_left <- c.c_left - 1;
    c.c_busy <- true;
    c.c_arrival <- arrival
  end

(* [c]'s request resolved at [at]; the connection goes on one RTT later:
   [Closed] with its next request, [Open] with its next queued arrival. *)
and resolve t c ~at =
  t.remaining.(c.c_queue) <- t.remaining.(c.c_queue) - 1;
  let at = at + t.rtt in
  match t.arrivals with
  | Closed -> if c.c_sent < t.requests_per_conn then arrive t c ~at
  | Open _ ->
    if not (Queue.is_empty c.c_backlog) then
      inject t c ~arrival:(Queue.take c.c_backlog) ~at

and arrive t c ~at =
  t.offered <- t.offered + 1;
  t.remaining.(c.c_queue) <- t.remaining.(c.c_queue) + 1;
  if (not c.c_busy) && Queue.is_empty c.c_backlog then inject t c ~arrival:at ~at
  else Queue.add at c.c_backlog

type outcome = Served | Shed | Unservable | Corrupt

(* Read in place: the status, then the body where it lies. *)
let classify ~expect payload =
  match Http.status payload with
  | 503 -> Shed
  | 403 -> Unservable
  | 200 when Http.body_is payload expect -> Served
  | _ -> Corrupt
  | exception Http.Bad_request _ -> Corrupt

(* TX-completion hook: classify the response against what the request in
   flight should produce, then let the connection go on. *)
let on_response t ~flow ~payload ~deliver_at =
  match Hashtbl.find t.by_flow flow with
  | exception Not_found -> t.corrupt <- t.corrupt + 1
  | c when not c.c_busy -> t.corrupt <- t.corrupt + 1
  | c ->
    c.c_busy <- false;
    t.responses <- t.responses + 1;
    (match classify ~expect:c.c_expect payload with
    | Shed -> t.shed <- t.shed + 1
    | Unservable -> t.unservable <- t.unservable + 1
    | Served ->
      t.ok <- t.ok + 1;
      Sky_trace.Histogram.add t.hist (deliver_at - c.c_arrival)
    | Corrupt -> t.corrupt <- t.corrupt + 1);
    resolve t c ~at:deliver_at

(* One arrival of the global Poisson process: a uniformly random
   connection, then the next exponential gap. *)
let fire t ~mean_gap =
  let at = t.next_at in
  arrive t t.conns.(Rng.int t.pump (Array.length t.conns)) ~at;
  let u = Rng.float t.pump in
  let gap = int_of_float (ceil (-.log (1. -. u) *. float_of_int mean_gap)) in
  t.next_at <- at + Int.max 1 gap

let start t ~at =
  Nic.set_on_tx t.nic (on_response t);
  match t.arrivals with
  | Closed ->
    (* SYNs arrive staggered, as from clients with distinct path delays. *)
    Array.iteri (fun i c -> arrive t c ~at:(at + (i * 57))) t.conns
  | Open _ -> t.next_at <- at

let step t ~now =
  match t.arrivals with
  | Open { mean_gap; _ } when t.offered < t.total ->
    if t.next_at > now then Machine.Idle_until t.next_at
    else begin
      while t.next_at <= now && t.offered < t.total do
        fire t ~mean_gap
      done;
      Machine.Progress
    end
  | _ -> Machine.Done

let next_event t =
  match t.arrivals with
  | Open _ when t.offered < t.total -> t.next_at
  | _ -> -1

let queue_done t ~queue = t.offered >= t.total && t.remaining.(queue) = 0
let finished t = t.offered >= t.total && Array.for_all (fun r -> r = 0) t.remaining
let expected t = t.total
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
