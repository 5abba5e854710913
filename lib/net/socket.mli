(** Minimal socket/accept layer over the {!Nic}: per-flow connection
    state, SYN-carries-first-request accept (TCP fast open), in-order
    delivery of whole-request packets, and sequenced replies. *)

type conn = {
  flow : int;
  queue : int;
  mutable rx_seq : int;
  mutable tx_seq : int;
  mutable requests : int;  (** requests answered on this connection *)
}

type t

type event =
  | Nothing  (** the ring is empty *)
  | Accepted  (** new flow; its first request follows *)
  | Request
      (** a request: {!request_conn} and {!request_payload} of the same
          queue hold it until the next {!service} of that queue *)

val create : Sky_ukernel.Kernel.t -> Nic.t -> t

val service : t -> queue:int -> core:int -> event
(** Demultiplex the next RX packet of [queue] (charging flow-table and,
    for new flows, accept costs on [core]); [Nothing] when the ring is
    empty. A SYN packet yields [Accepted] now and its embedded request on
    the next call. A packet out of sequence (a new flow's first packet
    with a nonzero [seq], or a stray or duplicate on an established
    flow) is dropped, counted in {!dropped}, and the next one serviced. *)

val request_conn : t -> queue:int -> conn
val request_payload : t -> queue:int -> bytes

val dropped : t -> int
(** Out-of-sequence packets dropped by {!service}. *)

val reply : t -> conn -> core:int -> bytes -> unit
(** Send one sequenced response packet back down the connection. *)
