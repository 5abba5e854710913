exception Page_fault = Page_table.Page_fault
exception Ept_violation = Ept.Ept_violation

type access = { kind : Sky_sim.Memsys.kind; write : bool }

let data_read = { kind = Sky_sim.Memsys.Data; write = false }
let data_write = { kind = Sky_sim.Memsys.Data; write = true }
let fetch = { kind = Sky_sim.Memsys.Insn; write = false }

module Cpu = Sky_sim.Cpu
module Pmu = Sky_sim.Pmu
module Psc = Sky_sim.Psc
module Tlb = Sky_sim.Tlb
module P = Pte.Packed

(* Hot-path rules (DESIGN §5e): a TLB hit, a refill and the nested walk
   allocate nothing on the host and make no accessor call, so every call
   left is a modelled step (a TLB/PSC/EWC probe or insert, an entry
   read, a cache-hierarchy access, a PMU count). A translation works out
   its core, TLB and ASID once, a refill its acceleration switch and EPT
   root ([-1]: not virtualized); they travel down as arguments. Core
   structures are fields of the private {!Cpu.t}, entries are tested
   against {!Pte.Packed}'s masks, probes return sentinels, and the EPT
   walk's entry addresses go to the core's walk scratch. *)

(* Bits of a table's index below [level] (x86-64 4-level layout, as
   [Page_table.va_index] and [Ept.entry_shift]): 9 per level above the
   4 KiB page offset. *)
let shift level = 12 + (9 * level)
let entry_pa table level va = table + (((va lsr shift level) land 0x1ff) * 8)

(* The cache-free EPT walk of [gpa] from [table] at [level], charged the
   way [Ept.walk] followed by one cached data access per [entries_read]
   would be: entries are read root first, a fault raises before anything
   is charged, and on success every entry read is charged, root first. *)
let rec ept_walk (cpu : Cpu.t) mem ~gpa table level =
  let epa = entry_pa table level gpa in
  cpu.walk_scratch.(3 - level) <- epa;
  let e = P.read mem epa in
  if e land P.present_mask = 0 then
    raise (Ept.Ept_violation (Ept.Ept_not_present gpa))
  else if level = 0 || e land P.huge_mask <> 0 then begin
    for i = 0 to 3 - level do
      Sky_sim.Memsys.access cpu Sky_sim.Memsys.Data cpu.walk_scratch.(i)
    done;
    let mask = (1 lsl shift level) - 1 in
    (e land P.addr_mask land lnot mask) lor (gpa land mask)
  end
  else ept_walk cpu mem ~gpa (e land P.addr_mask) (level - 1)

(* Translate a guest-physical address through the EPT at [root],
   charging one cached data access per EPT entry read. Identity when
   the vCPU is not virtualized ([root < 0]).

   The EPT walk cache memoizes gpn → hpn per EPT root (the hardware
   nested-walk cache): a hit skips the EPT walk and its per-entry
   memory accesses. Keyed by the EPT root's host-physical address, it
   is naturally correct across VMFUNC EPTP switches and guest-side
   flushes; EPT mutations invalidate it through the global epoch. *)
let ept_translate (cpu : Cpu.t) mem ~accel ~root gpa =
  if root < 0 then gpa
  else if not accel then ept_walk cpu mem ~gpa root 3
  else begin
    let gpn = gpa lsr 12 in
    let hpn = Psc.lookup cpu.ept_walk_cache ~asid:root ~key:gpn in
    if hpn <> Psc.miss then begin
      Pmu.count cpu.pmu Pmu.Ept_walk_cache_hit;
      (hpn lsl 12) lor (gpa land 0xfff)
    end
    else begin
      Pmu.count cpu.pmu Pmu.Ept_walk_cache_miss;
      let hpa = ept_walk cpu mem ~gpa root 3 in
      Psc.insert cpu.ept_walk_cache ~asid:root ~key:gpn (hpa lsr 12);
      hpa
    end
  end

(* The paging-structure cache holding pointers to tables at [level], and
   its key for [va]. *)
let psc_at (cpu : Cpu.t) level =
  match level with 0 -> cpu.psc_pde | 1 -> cpu.psc_pdpte | _ -> cpu.psc_pml4e

let psc_key va level = va lsr shift (level + 1)

(* Nested guest walk from the table at [table_gpa], [level]: each guest
   table page is located through the EPT, then the entry is read with a
   cached access. Returns the packed leaf entry. Each level read on the
   way down is installed in the paging-structure caches, mirroring how
   hardware fills them. *)
let rec guest_walk_from cpu mem ~accel ~root ~asid ~va table_gpa level =
  let epa = entry_pa (ept_translate cpu mem ~accel ~root table_gpa) level va in
  Sky_sim.Memsys.access cpu Sky_sim.Memsys.Data epa;
  let e = P.read mem epa in
  if e land P.present_mask = 0 then
    raise (Page_table.Page_fault (Page_table.Not_present va))
  else if level = 0 then e
  else begin
    let pa = e land P.addr_mask in
    if accel then
      Psc.insert (psc_at cpu (level - 1)) ~asid ~key:(psc_key va (level - 1)) pa;
    guest_walk_from cpu mem ~accel ~root ~asid ~va pa (level - 1)
  end

(* The paging-structure caches let the walk resume at the deepest level
   whose next-table pointer is cached for this ASID and VA prefix — a
   PDE hit turns a 4-level nested walk into a single leaf read. Probes
   charge no cycles (they model on-core lookup structures); only the
   remaining entry reads and their EPT translations go through the
   memory system. *)
let rec psc_resume (cpu : Cpu.t) mem ~root ~cr3 ~asid ~va level =
  if level > 2 then begin
    Pmu.count cpu.pmu Pmu.Psc_miss;
    guest_walk_from cpu mem ~accel:true ~root ~asid ~va cr3 3
  end
  else
    let table = Psc.lookup (psc_at cpu level) ~asid ~key:(psc_key va level) in
    if table <> Psc.miss then begin
      Pmu.count cpu.pmu Pmu.Psc_hit;
      guest_walk_from cpu mem ~accel:true ~root ~asid ~va table level
    end
    else psc_resume cpu mem ~root ~cr3 ~asid ~va (level + 1)

let check_perms vcpu acc ~va ~writable ~user ~nx =
  let user_mode = vcpu.Vcpu.mode = Vcpu.User in
  if user_mode && not user then
    raise (Page_table.Page_fault (Page_table.Protection va));
  if acc.write && not writable then
    raise (Page_table.Page_fault (Page_table.Protection va));
  if acc.kind = Sky_sim.Memsys.Insn && nx then
    raise (Page_table.Page_fault (Page_table.Protection va))

(* A TLB entry carries the flattened leaf permissions (no NX). *)
let serve_hit vcpu acc ~va tlb slot =
  check_perms vcpu acc ~va ~writable:(Tlb.slot_writable tlb slot)
    ~user:(Tlb.slot_user tlb slot) ~nx:false;
  (Tlb.slot_ppn tlb slot lsl 12) lor (va land 0xfff)

let walk_and_fill vcpu mem acc ~va (cpu : Cpu.t) ~tlb ~asid =
  let c0 = cpu.tsc in
  (* Fault site "mmu.walk": a spurious EPT violation (or crash) injected
     into the nested walk — only fires inside a mediated-call scope. *)
  if Sky_faults.Fault.is_enabled () then Sky_faults.Fault.inject ~core:cpu.id "mmu.walk";
  let accel = Sky_sim.Accel.is_enabled () in
  let root =
    match vcpu.Vcpu.vmcs with None -> -1 | Some v -> Vmcs.current_eptp v
  in
  let leaf =
    if accel then psc_resume cpu mem ~root ~cr3:vcpu.Vcpu.cr3 ~asid ~va 0
    else guest_walk_from cpu mem ~accel ~root ~asid ~va vcpu.Vcpu.cr3 3
  in
  let writable = leaf land P.writable_mask <> 0
  and user = leaf land P.user_mask <> 0 in
  check_perms vcpu acc ~va ~writable ~user ~nx:(leaf land P.nx_mask <> 0);
  let page_hpa = ept_translate cpu mem ~accel ~root (leaf land P.addr_mask) in
  Tlb.fill tlb ~asid ~vpn:(va lsr 12) ~ppn:(page_hpa lsr 12) ~page_shift:12
    ~writable ~user;
  Pmu.add cpu.pmu Pmu.Walk_cycles (cpu.tsc - c0);
  page_hpa lor (va land 0xfff)

let refill vcpu mem acc ~va cpu ~tlb ~asid =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core:cpu.Cpu.id ~cat:"walk" "tlb.refill" (fun () ->
        walk_and_fill vcpu mem acc ~va cpu ~tlb ~asid)
  else walk_and_fill vcpu mem acc ~va cpu ~tlb ~asid

let translate vcpu mem acc ~va =
  let cpu = vcpu.Vcpu.cpu in
  let tlb = if acc.kind = Sky_sim.Memsys.Insn then cpu.itlb else cpu.dtlb in
  let asid = Vcpu.asid vcpu in
  let slot = Tlb.lookup_slot tlb ~asid ~vpn:(va lsr 12) in
  if slot >= 0 then serve_hit vcpu acc ~va tlb slot
  else refill vcpu mem acc ~va cpu ~tlb ~asid

let accessed vcpu mem acc ~va =
  let hpa = translate vcpu mem acc ~va in
  Sky_sim.Memsys.access vcpu.Vcpu.cpu acc.kind hpa;
  hpa

let read_u64 vcpu mem ~va =
  Sky_mem.Phys_mem.read_u64 mem (accessed vcpu mem data_read ~va)

let write_u64 vcpu mem ~va v =
  Sky_mem.Phys_mem.write_u64 mem (accessed vcpu mem data_write ~va) v

(* Walk a virtual range page by page, charging one cached access per
   64-byte line of each in-page chunk, and with [copy] move the chunk
   between [buf] (at the matching offset) and simulated memory: into
   memory on a write access, out of it on a read. A toplevel loop, so a
   copy allocates nothing but a read's destination. *)
let rec copy_range vcpu mem acc ~copy buf va off remaining =
  if remaining > 0 then begin
    let n = min remaining (4096 - (va land 0xfff)) in
    let hpa = translate vcpu mem acc ~va in
    Sky_sim.Memsys.touch_range vcpu.Vcpu.cpu acc.kind ~pa:hpa ~len:n;
    if copy then
      if acc.write then
        Sky_mem.Phys_mem.blit_from mem ~src:buf ~src_off:off ~dst_pa:hpa ~len:n
      else Sky_mem.Phys_mem.blit_to mem ~src_pa:hpa ~dst:buf ~dst_off:off ~len:n;
    copy_range vcpu mem acc ~copy buf (va + n) (off + n) (remaining - n)
  end

let read_bytes vcpu mem ~va ~len =
  let dst = Bytes.create len in
  copy_range vcpu mem data_read ~copy:true dst va 0 len;
  dst

let write_bytes vcpu mem ~va src =
  copy_range vcpu mem data_write ~copy:true src va 0 (Bytes.length src)

let touch vcpu mem acc ~va ~len = copy_range vcpu mem acc ~copy:false Bytes.empty va 0 len
