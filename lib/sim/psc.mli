(** Paging-structure caches (PML4E / PDPTE / PDE) and the EPT walk
    cache: set-associative, LRU, ASID-tagged maps from an integer key
    (a virtual-address prefix, or a guest page number) to an integer
    payload (the next table's GPA, or a host page number). Backed by
    {!Tlb} storage: [flush_all] is O(1) and global mapping mutations
    invalidate them lazily via {!Accel}. *)

type t

val create : entries:int -> ways:int -> t

val miss : int
(** [-1]: what {!lookup} returns on a miss. Payloads are addresses or
    page numbers, never negative. *)

val lookup : t -> asid:int -> key:int -> int
(** The payload, or {!miss}. Hit updates LRU state and the hit counter;
    miss counts a miss. Allocation-free, like {!insert}. *)

val insert : t -> asid:int -> key:int -> int -> unit
(** [value] must be non-negative. *)

val flush_all : t -> unit
(** O(1) generation bump. *)

val flush_asid : t -> asid:int -> unit
(** Sweep out every entry tagged [asid], O(entries). *)

val flush_key : t -> key:int -> unit
(** Invalidate [key] under every ASID (INVLPG drops paging-structure
    entries regardless of PCID). *)

val reset_stats : t -> unit
