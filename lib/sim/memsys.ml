type kind = Insn | Data

let access (cpu : Cpu.t) kind pa =
  let l1 = match kind with Insn -> cpu.l1i | Data -> cpu.l1d in
  if Cache.access l1 pa then Cpu.charge cpu Costs.lat_l1
  else if Cache.access cpu.l2 pa then Cpu.charge cpu Costs.lat_l2
  else if Cache.access cpu.l3 pa then Cpu.charge cpu Costs.lat_l3
  else Cpu.charge cpu Costs.lat_dram

let access_state_only (cpu : Cpu.t) kind pa =
  let l1 = match kind with Insn -> cpu.l1i | Data -> cpu.l1d in
  if not (Cache.access l1 pa) then
    if not (Cache.access cpu.l2 pa) then ignore (Cache.access cpu.l3 pa)

let touch_range_state_only cpu kind ~pa ~len =
  if len > 0 then begin
    let line = 64 in
    let first = pa / line and last = (pa + len - 1) / line in
    for l = first to last do
      access_state_only cpu kind (l * line)
    done
  end

let access_uncached cpu = Cpu.charge cpu Costs.lat_dram

let touch_range cpu kind ~pa ~len =
  if len > 0 then begin
    let line = 64 in
    let first = pa / line and last = (pa + len - 1) / line in
    for l = first to last do
      access cpu kind (l * line)
    done
  end

(* Host-side hot lines: a flat direct-mapped memo over the most recent
   TLB hits, keyed by (core, i/d-side, VPN low bits). A probe that
   revalidates its remembered TLB slot (same live (asid, vpn) — ASIDs
   encode PCID and EPTP root, so a hit is also correct across processes
   and EPTP switches) reproduces the exact observable state of a TLB
   hit while skipping the set scan and the surrounding walk machinery
   in the translation layer. Pure host-speed optimization: simulated
   cycles, counters and LRU state are bit-identical.

   Lines hold an OCaml pointer to the owning Tlb.t, compared physically
   on probe, so stale lines from a torn-down machine can never match a
   new machine's structures. Fault-injection scope entry clears all
   lines (registered below) so chaos runs exercise the full path and
   stay bit-identical whether or not lines were warm. *)
module Hotline = struct
  (* [h_slot = -1] marks an empty line; [h_tlb] then holds the table's
     [vacant] placeholder, which no probe passes in. *)
  type line = {
    mutable h_tlb : Tlb.t;
    mutable h_slot : int;
    mutable h_asid : int;
    mutable h_vpn : int;
  }

  let max_cores = 64
  let lines_per_side = 16

  type table = { lines : line array; vacant : Tlb.t }

  let fresh_table () =
    let vacant = Tlb.create ~name:"hotline.vacant" ~entries:1 ~ways:1 in
    {
      lines =
        Array.init (max_cores * 2 * lines_per_side) (fun _ ->
            { h_tlb = vacant; h_slot = -1; h_asid = 0; h_vpn = 0 });
      vacant;
    }

  (* The memo table is scoped like {!Accel}'s epoch: single-machine runs
     share the process-wide default, parallel shards each bind their own
     ({!with_table}, domain-local) so a fault-scope entry or warm-up in
     one shard never drops another shard's lines — hot-line hits are a
     PMU-visible event, so cross-shard clears would make counters depend
     on shard interleaving. *)
  let default_table = fresh_table ()

  let scoped = Atomic.make 0

  let table_key : table Domain.DLS.key =
    Domain.DLS.new_key (fun () -> default_table)

  let current_table () =
    if Atomic.get scoped = 0 then default_table else Domain.DLS.get table_key

  let with_table tb f =
    let prev = Domain.DLS.get table_key in
    Domain.DLS.set table_key tb;
    Atomic.incr scoped;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set table_key prev;
        Atomic.decr scoped)
      f

  let line_for ~core ~insn ~vpn =
    let side = if insn then 1 else 0 in
    let core = core land (max_cores - 1) in
    (current_table ()).lines.(((core * 2) + side) * lines_per_side
                              + (vpn land (lines_per_side - 1)))

  let probe line ~tlb ~asid ~vpn =
    if line.h_slot >= 0 && line.h_tlb == tlb && line.h_asid = asid
       && line.h_vpn = vpn && Tlb.slot_hit tlb line.h_slot ~asid ~vpn
    then line.h_slot
    else -1

  let record line ~tlb ~slot ~asid ~vpn =
    line.h_tlb <- tlb;
    line.h_slot <- slot;
    line.h_asid <- asid;
    line.h_vpn <- vpn

  let clear_all () =
    let tb = current_table () in
    Array.iter
      (fun l ->
        l.h_tlb <- tb.vacant;
        l.h_slot <- -1)
      tb.lines

  (* Chaos determinism: entering a fault-injection scope drops every
     hot line, so the translation layer takes the same code path with
     the same site hooks regardless of prior warm-up. *)
  let () = Sky_faults.Fault.on_scope_enter clear_all
end
