(** The load generator: a fleet of clients on the {!Nic}'s wire side.

    Everything runs in the NIC's DMA hooks and costs the simulated cores
    nothing, as with a load generator on a separate physical machine.
    Connection [i] gets a flow id whose RSS hash lands on queue
    [i mod n_queues], so offered load stays balanced however many
    workers are configured. Each connection keeps at most one request in
    flight, so per-connection response order stays defined under
    work-stealing and batching.

    Two arrival processes drive the fleet ({!arrivals}); everything else
    is shared. Every request resolves exactly once, as one of:
    - [ok]: answered with the expected body (the goodput);
    - [shed]: a typed 503 (queue-full or deadline-blown shedding);
    - [shed_wire]: dropped by a full RX ring at injection (the NIC as
      the outermost admission controller);
    - [unservable]: a terminal 403 (denied by every receiver);
    - [corrupt]: any other answer — lost, duplicated or corrupted.

    Once {!finished}: [offered = ok + shed + shed_wire + unservable +
    corrupt]. A response on a connection with nothing in flight is
    counted [corrupt] and changes nothing else. *)

type mix = { m_kv_get : int; m_kv_put : int; m_fs_get : int }
(** Relative request-type weights. *)

val default_mix : mix

type arrivals =
  | Closed
      (** Each connection sends [requests_per_conn] requests: the first
          staggered from the start, every later one an RTT after the
          previous one resolved, so offered load self-throttles to the
          service rate. The first request is a PUT; GETs read back this
          connection's own writes, newest first. *)
  | Open of {
      mean_gap : int;  (** mean Poisson inter-arrival gap, cycles *)
      total : int;  (** arrivals to offer *)
      ttl : int option;  (** relative deadline stamped on every request *)
      keys : (string * bytes) array array;
          (** [keys.(i)]: connection [i]'s provisioned warm keys, inserted
              server-side before the run *)
    }
      (** A global Poisson process, independent of the service rate,
          picks a connection per arrival; arrivals queue client-side
          while the connection is busy, and latency counts from the
          arrival (no coordinated omission). A connection churns to a
          fresh flow every [requests_per_conn] requests. GETs read only
          provisioned keys and PUTs write keys nobody reads, so shedding
          can drop any request without faking a corruption. *)

type t

val create :
  Nic.t ->
  seed:int ->
  mix:mix ->
  conns:int ->
  requests_per_conn:int ->
  rtt:int ->
  files:(string * bytes) array ->
  arrivals ->
  t
(** [files] are the provisioned FS objects [Fs_get] requests draw from
    (name, expected contents). *)

val value_bytes : Sky_sim.Rng.t -> int -> int -> bytes
(** [value_bytes rng id n]: the deterministic printable value of [id]'s
    [n]-th write. *)

val start : t -> at:int -> unit
(** Install the NIC TX hook; [Closed] injects every connection's first
    request (its SYN) staggered from cycle [at], [Open] schedules the
    first arrival at [at]. *)

val step : t -> now:int -> Sky_sim.Machine.step
(** The [Open] arrival pump, stepped by a dedicated wire-side core:
    inject every arrival due by [now], then sleep to the next; [Done]
    once all arrivals have fired ([Closed]: at once). *)

val next_event : t -> int option
(** The pump's next arrival, if any remains (the {!Httpd} [wire_hint]). *)

val queue_done : t -> queue:int -> bool
(** Every arrival offered and none owed by [queue]. *)

val finished : t -> bool

val expected : t -> int
(** Requests the run offers: [conns * requests_per_conn] ([Closed]) or
    [total] ([Open]). *)

val offered : t -> int
val responses : t -> int
(** Responses to a request in flight. *)

val ok : t -> int
val shed : t -> int
val shed_wire : t -> int
val unservable : t -> int
val corrupt : t -> int

val errors : t -> int
(** [unservable + corrupt]: zero on a healthy run, {e and} on a chaos
    run, since crash recovery replays the in-flight request. *)

val churns : t -> int
(** Connections retired and reopened. *)

val latencies : t -> Sky_trace.Histogram.t
(** Arrival to response TX of [ok] requests, queueing included. *)
