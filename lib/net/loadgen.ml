(** Closed-loop load generator on the wire side of the {!Nic}.

    Models a fleet of clients one RTT away: each connection keeps exactly
    one request outstanding, and the response's TX completion schedules
    the next request [rtt] cycles later. Running on the wire side (the
    NIC's DMA hooks) costs the simulated cores nothing — all charged
    cycles belong to the server, as with a load generator on a separate
    physical machine.

    Flow placement is RSS-aware, like real load testers that pick source
    ports to balance receive queues: connection [i] gets a flow id whose
    RSS hash lands on queue [i mod n_queues], so offered load stays
    balanced however many workers are configured.

    Every response is validated against what the request should produce
    (PUTs echo "stored", GETs return the value this connection previously
    stored, file reads match the provisioned file), so lost, duplicated,
    or corrupted requests surface as [errors] — the chaos experiment's
    zero-lost-requests check. *)

open Sky_sim

type mix = Workload.mix = { m_kv_get : int; m_kv_put : int; m_fs_get : int }

let default_mix = Workload.default_mix

type expect = Workload.expect =
  | Stored
  | Value of bytes
  | File of bytes

type flow_state = {
  f_flow : int;
  f_queue : int;
  f_rng : Rng.t;
  f_total : int;
  mutable f_sent : int;  (** requests injected (= next packet seq) *)
  mutable f_done : int;
  mutable f_sent_at : int;
  mutable f_expect : expect;
  mutable f_keys : string array;  (** keys this flow stored, oldest first *)
  mutable f_values : bytes array;  (** their values, parallel to [f_keys] *)
  mutable f_stored : int;  (** live prefix of [f_keys] / [f_values] *)
}

type t = {
  nic : Nic.t;
  mix : mix;
  rtt : int;
  files : (string * bytes) array;
  flows : flow_state array;
  by_flow : (int, flow_state) Hashtbl.t;
  remaining : int array;  (** responses still owed, per queue *)
  hist : Sky_trace.Histogram.t;
  mutable responses : int;
  mutable errors : int;
}

let value_bytes = Workload.value_bytes

let create nic ~seed ~mix ~conns ~requests_per_conn ~rtt ~files =
  if conns <= 0 then invalid_arg "Loadgen.create: conns";
  if requests_per_conn <= 0 then invalid_arg "Loadgen.create: requests_per_conn";
  let nq = Nic.n_queues nic in
  let flow_ids = Workload.place_flows nic ~conns in
  let remaining = Array.make nq 0 in
  let flows =
    Array.mapi
      (fun i flow ->
        let queue = Nic.queue_of_flow nic flow in
        remaining.(queue) <- remaining.(queue) + requests_per_conn;
        {
          f_flow = flow;
          f_queue = queue;
          f_rng = Rng.create ~seed:(seed + (i * 0x9e3779b9) + flow);
          f_total = requests_per_conn;
          f_sent = 0;
          f_done = 0;
          f_sent_at = 0;
          f_expect = Stored;
          f_keys = [||];
          f_values = [||];
          f_stored = 0;
        })
      flow_ids
  in
  let by_flow = Hashtbl.create (2 * conns) in
  Array.iter (fun f -> Hashtbl.replace by_flow f.f_flow f) flows;
  {
    nic;
    mix;
    rtt;
    files;
    flows;
    by_flow;
    remaining;
    hist = Sky_trace.Histogram.create ();
    responses = 0;
    errors = 0;
  }

(* A PUT of the flow's next key, appended to its store (capacity
   doubles, so a request copies no list). *)
let put f =
  let i = f.f_stored in
  let key = Dec.tag "f" f.f_flow "-k" i "" in
  let value = value_bytes f.f_rng f.f_flow f.f_sent in
  if i = Array.length f.f_keys then begin
    let cap = Int.max 4 (2 * i) in
    f.f_keys <- Array.append f.f_keys (Array.make (cap - i) "");
    f.f_values <- Array.append f.f_values (Array.make (cap - i) Bytes.empty)
  end;
  f.f_keys.(i) <- key;
  f.f_values.(i) <- value;
  f.f_stored <- i + 1;
  f.f_expect <- Stored;
  Http.Kv_put (key, value)

(* Build connection [f]'s next request. The first request is always a
   PUT (seeding the keyspace this connection will read back); after that
   the mix weights decide, with GET falling back to PUT until the flow
   has stored something. A GET draws a position in the newest-first
   list of stored keys. *)
let next_request t f =
  if f.f_sent = 0 then put f
  else begin
    let { m_kv_get; m_kv_put; m_fs_get } = t.mix in
    let total = m_kv_get + m_kv_put + m_fs_get in
    let roll = Rng.int f.f_rng total in
    if roll < m_kv_get && f.f_stored > 0 then begin
      let i = f.f_stored - 1 - Rng.int f.f_rng f.f_stored in
      f.f_expect <- Value f.f_values.(i);
      Http.Kv_get f.f_keys.(i)
    end
    else if roll < m_kv_get + m_kv_put || f.f_stored = 0 || Array.length t.files = 0
    then put f
    else begin
      let name, data = t.files.(Rng.int f.f_rng (Array.length t.files)) in
      f.f_expect <- File data;
      Http.Fs_get name
    end
  end

let inject t f ~at =
  let payload = Http.serialize_request (next_request t f) in
  let seq = f.f_sent in
  f.f_sent <- seq + 1;
  f.f_sent_at <- at;
  Nic.deliver t.nic ~flow:f.f_flow ~seq ~payload ~at

let validate t f (resp : Http.response) =
  if not (Workload.body_matches f.f_expect resp) then t.errors <- t.errors + 1

(* TX-completion hook: account the response, then keep the loop closed by
   scheduling the connection's next request one RTT out. *)
let on_response t ~flow ~payload ~deliver_at =
  match Hashtbl.find t.by_flow flow with
  | exception Not_found -> t.errors <- t.errors + 1
  | f ->
    (match Http.parse_response payload with
    | resp -> validate t f resp
    | exception Http.Bad_request _ -> t.errors <- t.errors + 1);
    Sky_trace.Histogram.add t.hist (deliver_at - f.f_sent_at);
    f.f_done <- f.f_done + 1;
    t.responses <- t.responses + 1;
    t.remaining.(f.f_queue) <- t.remaining.(f.f_queue) - 1;
    if f.f_done < f.f_total then inject t f ~at:(deliver_at + t.rtt)

let start t ~at =
  Nic.set_on_tx t.nic (on_response t);
  (* SYNs arrive staggered, as from clients with distinct path delays. *)
  Array.iteri (fun i f -> inject t f ~at:(at + (i * 57))) t.flows

let queue_done t ~queue = t.remaining.(queue) = 0
let finished t = Array.for_all (fun r -> r = 0) t.remaining
let responses t = t.responses
let errors t = t.errors
let expected t = Array.fold_left (fun a f -> a + f.f_total) 0 t.flows
let latencies t = t.hist
let conns t = Array.length t.flows
