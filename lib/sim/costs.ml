(** Hardware latency calibration table.

    Every constant is a cycle count measured by the SkyBridge paper on an
    Intel Skylake i7-6700K (the evaluation machine, §6.1), with the paper
    section it comes from. These are the *direct* costs; indirect costs
    (cache and TLB pollution) are not constants — they emerge from the
    cache/TLB simulation in {!Cache} and {!Tlb}. *)

(* §2.1.1: mode switch components, measured with TSC around each
   instruction. *)
let syscall = 82
let swapgs = 26
let sysret = 75

(* §2.1.1 / Table 2: address-space switch (CR3 write with PCID enabled). *)
let cr3_write = 186

(* Table 2: VMFUNC EPTP switch with VPID enabled (no TLB flush). *)
let vmfunc = 134

(* WRPKRU protection-key switch (the ERIM-style MPK backend). ERIM
   measures 11–260 cycles for a full call gate; the WRPKRU instruction
   itself is in the tens of cycles on Skylake and never touches the TLB.
   The gate's register zeroing/moves ride in the generic per-crossing
   trampoline cost, so this constant is the bare instruction. *)
let wrpkru = 26

(* Allowed-entry-point table lookup in the "syscall as a privilege"
   filtered slowpath: a hashed (domain, server) probe plus an entry
   compare, performed at trap time in the kernel. Software-check cost of
   the same order as the seL4 fastpath capability logic. *)
let entry_filter_check = 48

(* §2.1.3: one inter-processor interrupt. *)
let ipi = 1913

(* INVLPG single-page invalidation. The paper does not measure it; this
   is a Skylake-class public figure of the same order as other
   serializing TLB maintenance, kept well below a PCID CR3 write. *)
let invlpg = 120

(* §2.1.1: seL4 fastpath software IPC logic (checks, endpoint management,
   capability enforcement). *)
let sel4_fastpath_logic = 98

(* §6.3: SkyBridge per-crossing cost other than VMFUNC itself: saving and
   restoring register values and installing the target stack. *)
let skybridge_crossing_other = 64

(* Memory hierarchy access latencies (Skylake, public figures; the paper
   does not list them but the indirect-cost experiment in §2.1.2 depends on
   realistic values). *)
let lat_l1 = 4
let lat_l2 = 12
let lat_l3 = 42
let lat_dram = 200

(* TLB-miss page walks issue one memory access per paging level; those
   accesses are charged through the cache hierarchy, so there is no flat
   "walk cost" constant. §4.1 cites up to 24 accesses for a 2-level
   (nested) walk, which is exactly 4 guest levels x (4 EPT levels + 1
   access each) + 4 for the final GPA: our walker reproduces that count
   structurally. *)

(* Evaluation machine clock (i7-6700K nominal, frequency scaling disabled
   per §6.1): used to convert simulated cycles to ops/s. *)
let freq_ghz = 4.0

let cycles_to_seconds c = float_of_int c /. (freq_ghz *. 1e9)

let ops_per_sec ~ops ~cycles =
  if cycles <= 0 then 0.0
  else float_of_int ops /. cycles_to_seconds cycles
