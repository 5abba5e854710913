(** Paging-structure caches and the EPT walk cache.

    Skylake-class hardware keeps, besides the leaf TLBs, small caches of
    upper-level paging-structure entries (PML4E / PDPTE / PDE) so a TLB
    miss resumes the page walk at the deepest cached level, and a nested
    walk cache so the EPT translations of guest table pages skip the EPT
    walk. All four are the same structure: a set-associative ASID-tagged
    map from an integer key to an integer payload. We reuse {!Tlb}'s
    storage (payload in the entry's [ppn]) so they inherit its LRU policy and
    its generation/epoch-based invalidation for free. A probe or an insert
    is one call into {!Tlb} and allocates nothing on the host. *)

type t = Tlb.t

let create ~entries ~ways = Tlb.create ~entries ~ways

let miss = -1

let lookup = Tlb.lookup_payload
let insert = Tlb.fill_payload

let flush_all = Tlb.flush_all
let flush_asid = Tlb.flush_asid
let flush_key t ~key = Tlb.flush_vpn_all_asids t ~vpn:key
let reset_stats = Tlb.reset_stats
