type t = {
  id : int;
  mutable tsc : int;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  (* Translation acceleration (Skylake-like): paging-structure caches
     keyed by VA prefix, and the nested (EPT) walk cache keyed by GPN. *)
  psc_pml4e : Psc.t;
  psc_pdpte : Psc.t;
  psc_pde : Psc.t;
  ept_walk_cache : Psc.t;
  walk_scratch : int array;
  pmu : Pmu.t;
}

let create ~id ~l3 =
  {
    id;
    tsc = 0;
    l1i = Cache.create ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64;
    l1d = Cache.create ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64;
    l2 = Cache.create ~size_bytes:(256 * 1024) ~ways:4 ~line_bytes:64;
    l3;
    itlb = Tlb.create ~entries:128 ~ways:8;
    dtlb = Tlb.create ~entries:64 ~ways:4;
    psc_pml4e = Psc.create ~entries:16 ~ways:4;
    psc_pdpte = Psc.create ~entries:16 ~ways:4;
    psc_pde = Psc.create ~entries:32 ~ways:4;
    ept_walk_cache = Psc.create ~entries:64 ~ways:4;
    walk_scratch = Array.make 4 0;
    pmu = Pmu.create ();
  }

let id t = t.id
let cycles t = t.tsc

let charge t c =
  assert (c >= 0);
  t.tsc <- t.tsc + c;
  (* Attribute the charged cycles to the innermost open trace span's
     category. Recording reads the clock but never advances it, so cycle
     counts are identical with tracing on or off. *)
  if Sky_trace.Trace.is_enabled () then Sky_trace.Trace.on_charge ~core:t.id c;
  (* Fault site "sim.cycle": an At_cycle arm fires at the first in-scope
     charge whose TSC reading passed the target. One ref read when the
     engine is off; never advances the clock. *)
  if Sky_faults.Fault.is_enabled () then
    Sky_faults.Fault.inject ~core:t.id "sim.cycle"

let advance_to t c = if c > t.tsc then t.tsc <- c
let l1d t = t.l1d
let l2 t = t.l2
let l3 t = t.l3
let itlb t = t.itlb
let dtlb t = t.dtlb
let psc_pml4e t = t.psc_pml4e
let psc_pdpte t = t.psc_pdpte
let psc_pde t = t.psc_pde

(* Flush everything a guest-linear translation can be built from: the
   leaf TLBs and the paging-structure caches. The EPT walk cache is
   keyed by host-physical EPT root and survives guest-side flushes,
   exactly like the hardware nested-walk cache. *)
let flush_guest_translation t =
  Tlb.flush_all t.itlb;
  Tlb.flush_all t.dtlb;
  Psc.flush_all t.psc_pml4e;
  Psc.flush_all t.psc_pdpte;
  Psc.flush_all t.psc_pde

let pmu t = t.pmu

type footprint = {
  l1i_miss : int;
  l1d_miss : int;
  l2_miss : int;
  l3_miss : int;
  itlb_miss : int;
  dtlb_miss : int;
}

let footprint t =
  {
    l1i_miss = Cache.misses t.l1i;
    l1d_miss = Cache.misses t.l1d;
    l2_miss = Cache.misses t.l2;
    l3_miss = Cache.misses t.l3;
    itlb_miss = Tlb.misses t.itlb;
    dtlb_miss = Tlb.misses t.dtlb;
  }

let reset_stats t =
  Cache.reset_stats t.l1i;
  Cache.reset_stats t.l1d;
  Cache.reset_stats t.l2;
  Cache.reset_stats t.l3;
  Tlb.reset_stats t.itlb;
  Tlb.reset_stats t.dtlb;
  Psc.reset_stats t.psc_pml4e;
  Psc.reset_stats t.psc_pdpte;
  Psc.reset_stats t.psc_pde;
  Psc.reset_stats t.ept_walk_cache;
  Pmu.reset t.pmu
