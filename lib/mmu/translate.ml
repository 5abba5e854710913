exception Page_fault = Page_table.Page_fault
exception Ept_violation = Ept.Ept_violation

type access = { kind : Sky_sim.Memsys.kind; write : bool }

let data_read = { kind = Sky_sim.Memsys.Data; write = false }
let data_write = { kind = Sky_sim.Memsys.Data; write = true }
let fetch = { kind = Sky_sim.Memsys.Insn; write = false }

(* Hot-path rules: a TLB hit, a refill and the nested walk allocate
   nothing on the host — no closures, options, tuples or boxed [int64]
   (DESIGN §5e). Entries are read packed ({!Pte.Packed}), cache probes
   return sentinels and walk state travels as arguments; the one buffer,
   the EPT walk's entry addresses, is the core's walk scratch. *)

(* The cache-free EPT walk of [gpa] from [table] at [level], charged the
   way [Ept.walk] followed by one cached data access per [entries_read]
   would be: entries are read root first, a fault raises before anything
   is charged, and on success every entry read is charged, root first. *)
let rec ept_walk cpu mem ~gpa table level =
  let epa = table + (Page_table.va_index ~level gpa * 8) in
  let read = Sky_sim.Cpu.walk_scratch cpu in
  read.(3 - level) <- epa;
  let e = Pte.Packed.read mem epa in
  if not (Pte.Packed.present e) then
    raise (Ept.Ept_violation (Ept.Ept_not_present gpa))
  else if level = 0 || Pte.Packed.huge e then begin
    for i = 0 to 3 - level do
      Sky_sim.Memsys.access cpu Sky_sim.Memsys.Data read.(i)
    done;
    let mask = (1 lsl Ept.entry_shift level) - 1 in
    (Pte.Packed.addr e land lnot mask) lor (gpa land mask)
  end
  else ept_walk cpu mem ~gpa (Pte.Packed.addr e) (level - 1)

(* Translate a guest-physical address through the current EPT, charging
   one cached data access per EPT entry read. Identity when the vCPU is
   not virtualized.

   The EPT walk cache memoizes gpn → hpn per EPT root (the hardware
   nested-walk cache): a hit skips the EPT walk and its per-entry
   memory accesses. Keyed by the EPT root's host-physical address, it
   is naturally correct across VMFUNC EPTP switches and guest-side
   flushes; EPT mutations invalidate it through the global epoch. *)
let ept_translate vcpu mem gpa =
  match vcpu.Vcpu.vmcs with
  | None -> gpa
  | Some vmcs ->
    let root_pa = Vmcs.current_eptp vmcs in
    let cpu = Vcpu.cpu vcpu in
    if not (Sky_sim.Accel.is_enabled ()) then ept_walk cpu mem ~gpa root_pa 3
    else begin
      let wc = Sky_sim.Cpu.ept_walk_cache cpu in
      let pmu = Sky_sim.Cpu.pmu cpu in
      let gpn = gpa lsr 12 in
      let hpn = Sky_sim.Psc.lookup wc ~asid:root_pa ~key:gpn in
      if hpn <> Sky_sim.Psc.miss then begin
        Sky_sim.Pmu.count pmu Sky_sim.Pmu.Ept_walk_cache_hit;
        (hpn lsl 12) lor (gpa land 0xfff)
      end
      else begin
        Sky_sim.Pmu.count pmu Sky_sim.Pmu.Ept_walk_cache_miss;
        let hpa = ept_walk cpu mem ~gpa root_pa 3 in
        Sky_sim.Psc.insert wc ~asid:root_pa ~key:gpn (hpa lsr 12);
        hpa
      end
    end

(* The paging-structure cache holding pointers to tables at [level], and
   its key for [va]. *)
let psc_at cpu level =
  match level with
  | 0 -> Sky_sim.Cpu.psc_pde cpu
  | 1 -> Sky_sim.Cpu.psc_pdpte cpu
  | _ -> Sky_sim.Cpu.psc_pml4e cpu

let psc_key va level = va lsr (21 + (9 * level))

(* Nested guest walk from the table at [table_gpa], [level]: each guest
   table page is located through the EPT, then the entry is read with a
   cached access. Returns the packed leaf entry. Each level read on the
   way down is installed in the paging-structure caches, mirroring how
   hardware fills them. *)
let rec guest_walk_from vcpu mem ~accel ~asid ~va table_gpa level =
  let table_hpa = ept_translate vcpu mem table_gpa in
  let epa = table_hpa + (Page_table.va_index ~level va * 8) in
  let cpu = Vcpu.cpu vcpu in
  Sky_sim.Memsys.access cpu Sky_sim.Memsys.Data epa;
  let e = Pte.Packed.read mem epa in
  if not (Pte.Packed.present e) then
    raise (Page_table.Page_fault (Page_table.Not_present va))
  else if level = 0 then e
  else begin
    let pa = Pte.Packed.addr e in
    if accel then
      Sky_sim.Psc.insert (psc_at cpu (level - 1)) ~asid
        ~key:(psc_key va (level - 1)) pa;
    guest_walk_from vcpu mem ~accel ~asid ~va pa (level - 1)
  end

(* The paging-structure caches let the walk resume at the deepest level
   whose next-table pointer is cached for this ASID and VA prefix — a
   PDE hit turns a 4-level nested walk into a single leaf read. Probes
   charge no cycles (they model on-core lookup structures); only the
   remaining entry reads and their EPT translations go through the
   memory system. *)
let rec psc_resume vcpu mem cpu ~asid ~va level =
  if level > 2 then begin
    Sky_sim.Pmu.count (Sky_sim.Cpu.pmu cpu) Sky_sim.Pmu.Psc_miss;
    guest_walk_from vcpu mem ~accel:true ~asid ~va vcpu.Vcpu.cr3 3
  end
  else
    let table =
      Sky_sim.Psc.lookup (psc_at cpu level) ~asid ~key:(psc_key va level)
    in
    if table <> Sky_sim.Psc.miss then begin
      Sky_sim.Pmu.count (Sky_sim.Cpu.pmu cpu) Sky_sim.Pmu.Psc_hit;
      guest_walk_from vcpu mem ~accel:true ~asid ~va table level
    end
    else psc_resume vcpu mem cpu ~asid ~va (level + 1)

let guest_walk vcpu mem ~va =
  let cpu = Vcpu.cpu vcpu in
  (* Fault site "mmu.walk": a spurious EPT violation (or crash) injected
     into the nested walk — only fires inside a mediated-call scope. *)
  if Sky_faults.Fault.is_enabled () then
    Sky_faults.Fault.inject ~core:(Sky_sim.Cpu.id cpu) "mmu.walk";
  let asid = Vcpu.asid vcpu in
  if Sky_sim.Accel.is_enabled () then psc_resume vcpu mem cpu ~asid ~va 0
  else guest_walk_from vcpu mem ~accel:false ~asid ~va vcpu.Vcpu.cr3 3

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
  check_perms vcpu acc ~va ~writable:(Sky_sim.Tlb.slot_writable tlb slot)
    ~user:(Sky_sim.Tlb.slot_user tlb slot) ~nx:false;
  (Sky_sim.Tlb.slot_ppn tlb slot lsl 12) lor (va land 0xfff)

let walk_and_fill vcpu mem acc ~va ~tlb ~asid =
  let cpu = Vcpu.cpu vcpu in
  let c0 = Sky_sim.Cpu.cycles cpu in
  let leaf = guest_walk vcpu mem ~va in
  let writable = Pte.Packed.writable leaf and user = Pte.Packed.user leaf in
  check_perms vcpu acc ~va ~writable ~user ~nx:(Pte.Packed.nx leaf);
  let page_hpa = ept_translate vcpu mem (Pte.Packed.addr leaf) in
  Sky_sim.Tlb.fill tlb ~asid ~vpn:(va lsr 12) ~ppn:(page_hpa lsr 12) ~page_shift:12
    ~writable ~user;
  Sky_sim.Pmu.add (Sky_sim.Cpu.pmu cpu) Sky_sim.Pmu.Walk_cycles
    (Sky_sim.Cpu.cycles cpu - c0);
  page_hpa lor (va land 0xfff)

let refill vcpu mem acc ~va ~tlb ~asid =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core:(Sky_sim.Cpu.id (Vcpu.cpu vcpu)) ~cat:"walk"
      "tlb.refill" (fun () -> walk_and_fill vcpu mem acc ~va ~tlb ~asid)
  else walk_and_fill vcpu mem acc ~va ~tlb ~asid

let translate vcpu mem acc ~va =
  let cpu = Vcpu.cpu vcpu in
  let insn = acc.kind = Sky_sim.Memsys.Insn in
  let tlb = if insn then Sky_sim.Cpu.itlb cpu else Sky_sim.Cpu.dtlb cpu in
  let vpn = va lsr 12 in
  let asid = Vcpu.asid vcpu in
  if not (Sky_sim.Accel.is_enabled ()) then begin
    let slot = Sky_sim.Tlb.lookup_slot tlb ~asid ~vpn in
    if slot >= 0 then serve_hit vcpu acc ~va tlb slot
    else refill vcpu mem acc ~va ~tlb ~asid
  end
  else begin
    (* Host fast path: revalidate the hot line remembered for this
       (core, side, vpn). Success is observably identical to a TLB hit
       (same counters, LRU and zero charged cycles) but skips the set
       scan. *)
    let line = Sky_sim.Memsys.Hotline.line_for ~core:(Sky_sim.Cpu.id cpu) ~insn ~vpn in
    let slot = Sky_sim.Memsys.Hotline.probe line ~tlb ~asid ~vpn in
    if slot >= 0 then begin
      Sky_sim.Pmu.count (Sky_sim.Cpu.pmu cpu) Sky_sim.Pmu.Hot_line_hit;
      serve_hit vcpu acc ~va tlb slot
    end
    else
      let slot = Sky_sim.Tlb.lookup_slot tlb ~asid ~vpn in
      if slot >= 0 then begin
        Sky_sim.Memsys.Hotline.record line ~tlb ~slot ~asid ~vpn;
        serve_hit vcpu acc ~va tlb slot
      end
      else refill vcpu mem acc ~va ~tlb ~asid
  end

let accessed vcpu mem acc ~va =
  let hpa = translate vcpu mem acc ~va in
  Sky_sim.Memsys.access (Vcpu.cpu vcpu) acc.kind hpa;
  hpa

let read_u8 vcpu mem ~va = Sky_mem.Phys_mem.read_u8 mem (accessed vcpu mem data_read ~va)

let write_u8 vcpu mem ~va v =
  Sky_mem.Phys_mem.write_u8 mem (accessed vcpu mem data_write ~va) v

let read_u64 vcpu mem ~va =
  Sky_mem.Phys_mem.read_u64 mem (accessed vcpu mem data_read ~va)

let write_u64 vcpu mem ~va v =
  Sky_mem.Phys_mem.write_u64 mem (accessed vcpu mem data_write ~va) v

(* Iterate a virtual range page by page, giving [f] the HPA and length of
   each in-page chunk, charging one cached access per 64-byte line. *)
let iter_range vcpu mem acc ~va ~len f =
  let cpu = Vcpu.cpu vcpu in
  let rec go va off remaining =
    if remaining > 0 then begin
      let in_page = 4096 - (va land 0xfff) in
      let n = min remaining in_page in
      let hpa = translate vcpu mem acc ~va in
      Sky_sim.Memsys.touch_range cpu acc.kind ~pa:hpa ~len:n;
      f ~hpa ~off ~len:n;
      go (va + n) (off + n) (remaining - n)
    end
  in
  go va 0 len

let read_bytes vcpu mem ~va ~len =
  let dst = Bytes.create len in
  iter_range vcpu mem data_read ~va ~len (fun ~hpa ~off ~len ->
      Sky_mem.Phys_mem.blit_to mem ~src_pa:hpa ~dst ~dst_off:off ~len);
  dst

let write_bytes vcpu mem ~va src =
  iter_range vcpu mem data_write ~va ~len:(Bytes.length src)
    (fun ~hpa ~off ~len ->
      Sky_mem.Phys_mem.blit_from mem ~src ~src_off:off ~dst_pa:hpa ~len)

let touch vcpu mem acc ~va ~len =
  if len > 0 then
    iter_range vcpu mem acc ~va ~len (fun ~hpa:_ ~off:_ ~len:_ -> ())
