(** Minimal socket/accept layer over the NIC.

    One listener per server; per-queue connection tables demultiplex RX
    packets by flow id. A flow's first packet ([seq = 0]) doubles as SYN
    and first request (TCP-fast-open style): [service] surfaces it as
    [`Accept], charging the three-way-handshake bookkeeping, then the
    request itself. Packets carry whole requests (the load generator
    never fragments), so there is no reassembly — but ordering is
    enforced: a flow's packets are consumed in sequence order, and a
    packet out of sequence is dropped. *)

open Sky_ukernel

let accept_cost = 600 (* socket alloc + handshake bookkeeping *)
let demux_cost = 90 (* flow-table lookup per packet *)

type conn = {
  flow : int;
  queue : int;
  mutable rx_seq : int;  (** next expected request sequence *)
  mutable tx_seq : int;  (** next response sequence *)
  mutable requests : int;
}

type event = Nothing | Accepted | Request

type t = {
  kernel : Kernel.t;
  nic : Nic.t;
  conns : (int, conn) Hashtbl.t;  (** flow id -> connection *)
  staged : bool array;
      (** per queue: a just-accepted SYN's embedded request waits in
          [req_conn]/[req_payload] *)
  req_conn : conn array;  (** per queue: the last [Request]'s connection *)
  req_payload : bytes array;  (** per queue: and its payload *)
  mutable dropped : int;  (** stray and duplicate packets dropped *)
}

let create kernel nic =
  let n = Nic.n_queues nic in
  let no_conn = { flow = -1; queue = -1; rx_seq = 0; tx_seq = 0; requests = 0 } in
  {
    kernel;
    nic;
    conns = Hashtbl.create 64;
    staged = Array.make n false;
    req_conn = Array.make n no_conn;
    req_payload = Array.make n Bytes.empty;
    dropped = 0;
  }

let request_conn t ~queue = t.req_conn.(queue)
let request_payload t ~queue = t.req_payload.(queue)

(* A request is reported through the per-queue slots, so demultiplexing
   one allocates no event. *)
let request t ~queue c payload =
  t.req_conn.(queue) <- c;
  t.req_payload.(queue) <- payload;
  Request

let dropped t = t.dropped

(* Pop the next RX packet of [queue] and demultiplex it. The [Accepted]
   event precedes the embedded first request: callers get two events for
   a SYN-carrying packet, so the request half is staged per queue. A
   packet out of sequence — a new flow's first packet with a nonzero
   [seq], or an established flow's packet with the wrong one (a stray or
   a duplicate) — is dropped and counted, and the next packet is
   serviced instead: hostile wire input never stops the server. *)
let rec service t ~queue ~core =
  if t.staged.(queue) then begin
    t.staged.(queue) <- false;
    Request
  end
  else if Nic.rx_level t.nic ~queue = 0 then Nothing
  else begin
    let payload = Nic.take t.nic ~queue ~core in
    let flow = Nic.rx_flow t.nic ~queue and seq = Nic.rx_seq t.nic ~queue in
    Kernel.user_compute t.kernel ~core ~cycles:demux_cost;
    match Hashtbl.find t.conns flow with
    | exception Not_found ->
      if seq <> 0 then drop t ~queue ~core
      else begin
        let c = { flow; queue; rx_seq = 1; tx_seq = 0; requests = 0 } in
        Hashtbl.add t.conns flow c;
        Kernel.user_compute t.kernel ~core ~cycles:accept_cost;
        (* The SYN carries the first request: deliver it on the next
           service pass. *)
        if Bytes.length payload > 0 then begin
          ignore (request t ~queue c payload);
          t.staged.(queue) <- true
        end;
        Accepted
      end
    | c ->
      if seq <> c.rx_seq then drop t ~queue ~core
      else begin
        c.rx_seq <- c.rx_seq + 1;
        request t ~queue c payload
      end
  end

and drop t ~queue ~core =
  t.dropped <- t.dropped + 1;
  Sky_trace.Trace.instant ~core ~cat:"web" "web.packet-dropped";
  service t ~queue ~core

let reply t c ~core payload =
  c.requests <- c.requests + 1;
  let seq = c.tx_seq in
  c.tx_seq <- seq + 1;
  Nic.tx t.nic ~queue:c.queue ~core ~flow:c.flow ~seq payload
