(** Translation look-aside buffer.

    Set-associative, LRU, keyed by virtual page number and an address-space
    identifier. The ASID is an opaque tag composed by the MMU layer from
    (VPID, PCID, EPTP root) so that, as on real hardware with VPID+PCID
    enabled, neither CR3 writes nor VMFUNC EPTP switches need flush the
    TLB — stale entries are simply never matched.

    Slots are flat [int] storage, live while their generation is the
    table's: [flush_all] bumps it (O(1)), and so, lazily, does any
    mapping mutation elsewhere in the machine (EPT unmap/remap, guest
    page-table unmap/protect, table teardown) via the {!Accel} epoch. A
    fill takes the first dead way of its set, else the LRU one. *)

type t

type entry = {
  ppn : int;  (** physical page number the VPN maps to *)
  page_shift : int;  (** 12 for 4 KiB, 21 for 2 MiB, 30 for 1 GiB *)
  writable : bool;
  user : bool;
}

val create : entries:int -> ways:int -> t

val lookup : t -> asid:int -> vpn:int -> entry option
(** Hit updates LRU state and the hit counter; miss counts a miss.
    Builds the returned entry: the hot paths use {!lookup_slot}. *)

(** {2 Allocation-free access by slot index}

    A slot index names the storage of one entry. {!lookup_slot} returns
    one ([-1] on a miss); the translation layer reads the entry's fields
    through it instead of building an {!entry}. *)

val lookup_slot : t -> asid:int -> vpn:int -> int
(** Like {!lookup} (same accounting) but returns the hit's slot index,
    or [-1] on a miss. *)

val lookup_payload : t -> asid:int -> key:int -> int
(** {!lookup_slot} returning the hit's [ppn] or [-1]: {!Psc.lookup}. *)

val slot_ppn : t -> int -> int
val slot_writable : t -> int -> bool
val slot_user : t -> int -> bool

val insert : t -> asid:int -> vpn:int -> entry -> unit

val fill :
  t -> asid:int -> vpn:int -> ppn:int -> page_shift:int -> writable:bool ->
  user:bool -> unit
(** {!insert} from the entry's fields, without building the record. *)

val fill_payload : t -> asid:int -> key:int -> int -> unit
(** {!fill} of a bare [ppn]: {!Psc.insert}. *)

val flush_all : t -> unit
(** O(1): bumps the generation counter. *)

val flush_asid : t -> asid:int -> unit
(** Invalidate every entry tagged [asid] (INVPCID-style): a sweep over
    the slots, O(entries). *)

val flush_page : t -> asid:int -> vpn:int -> unit
(** INVLPG-style single-entry invalidation. *)

val flush_vpn_all_asids : t -> vpn:int -> unit
(** Invalidate [vpn] under every ASID (INVLPG also drops
    paging-structure-cache entries regardless of PCID). O(ways). *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
