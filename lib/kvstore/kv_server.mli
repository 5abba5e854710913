(** The key-value store server: an open-addressing hash table whose
    entries live in simulated guest memory, so inserts and lookups have
    real cache footprints proportional to key/value size — the driver of
    Figure 2's size axis. *)

type t

exception Table_full

val max_kv : int
(** Maximum key or value length (1024 — Figure 2's largest point). *)

val create : Sky_sim.Machine.t -> t

val insert : t -> Sky_sim.Cpu.t -> key:bytes -> value:bytes -> unit
(** Linear-probed insert or overwrite. *)

val query : t -> Sky_sim.Cpu.t -> key:bytes -> bytes option

(** {2 In-place forms}

    The same operations on slices of one buffer — a wire message's
    fields are hashed, compared and stored where they lie, so serving a
    request copies no key. Charges are exactly those of {!insert} and
    {!query}: {!Kv_wire.handler} serves every wire message through
    them, and the simulation cannot tell it from copying the fields out
    first. *)

val insert_sub :
  t -> Sky_sim.Cpu.t -> bytes -> key_off:int -> key_len:int -> value_off:int ->
  value_len:int -> unit

val query_sub : t -> Sky_sim.Cpu.t -> bytes -> key_off:int -> key_len:int -> bytes option

val query_into :
  t -> Sky_sim.Cpu.t -> bytes -> key_off:int -> key_len:int -> dst:bytes -> dst_off:int ->
  int
(** A hit's value copied into [dst] at [dst_off] (which must have
    {!max_kv} bytes of room); its length, or -1 on a miss. *)

val free_slots : t -> int
(** Slots no key holds: an insert of a new key raises {!Table_full}
    once there are none. *)

val entries : t -> int
