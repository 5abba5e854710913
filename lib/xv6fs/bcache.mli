(** Block buffer cache (xv6's [bio.c], LRU over 32 block-sized slots).

    Slots are backed by simulated physical memory, so hits and misses
    have real micro-architectural footprints. Write-through happens via
    the log at commit time; the cache never holds data the disk does not
    (after commit). *)

type t

val create : Sky_sim.Machine.t -> t

val get : t -> Sky_sim.Cpu.t -> int -> load:(unit -> bytes) -> bytes
(** Cached block read; [load] fills an LRU victim slot on miss. *)

val put : t -> Sky_sim.Cpu.t -> int -> bytes -> unit
(** Refresh (or insert) the cached copy — used when a transaction
    installs committed blocks. *)
