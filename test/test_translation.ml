(* Tests for the translation-acceleration layer: the paging-structure
   caches and EPT walk cache must be pure accelerators — observably
   identical to the cache-free reference walker under any interleaving
   of mapping mutations, flushes, CR3 writes and VMFUNC EPTP switches. *)

open Sky_mem
open Sky_sim
open Sky_mmu

(* ------------------------------------------------------------------ *)
(* Reference walker: the cache-free nested translation, replicating     *)
(* Translate.translate's semantics (including the quirk that guest      *)
(* intermediate entries are always treated as next-table pointers)      *)
(* without touching any acceleration structure.                         *)
(* ------------------------------------------------------------------ *)

let ref_translate vcpu mem ~write ~va =
  let ept gpa =
    match vcpu.Vcpu.vmcs with
    | None -> gpa
    | Some vmcs -> (
      match Ept.walk ~mem ~root_pa:(Vmcs.current_eptp vmcs) ~gpa with
      | Ok r -> r.Ept.hpa
      | Error f -> raise (Ept.Ept_violation f))
  in
  let rec go table_gpa level =
    let table_hpa = ept table_gpa in
    let e = Phys_mem.read_u64 mem (table_hpa + (Page_table.va_index ~level va * 8)) in
    if not (Pte.is_present e) then
      raise (Page_table.Page_fault (Page_table.Not_present va))
    else
      let pa, flags = Pte.decode e in
      if level = 0 then (pa, flags) else go pa (level - 1)
  in
  let page_gpa, flags = go vcpu.Vcpu.cr3 3 in
  if vcpu.Vcpu.mode = Vcpu.User && not flags.Pte.user then
    raise (Page_table.Page_fault (Page_table.Protection va));
  if write && not flags.Pte.writable then
    raise (Page_table.Page_fault (Page_table.Protection va));
  ept page_gpa lor (va land 0xfff)

(* Collapse a translation attempt into a comparable outcome. *)
let outcome f =
  match f () with
  | hpa -> Printf.sprintf "hpa:%x" hpa
  | exception Page_table.Page_fault (Page_table.Not_present v) ->
    Printf.sprintf "not_present:%x" v
  | exception Page_table.Page_fault (Page_table.Protection v) ->
    Printf.sprintf "protection:%x" v
  | exception Ept.Ept_violation _ -> "ept_violation"

(* ------------------------------------------------------------------ *)
(* Equivalence property                                                 *)
(* ------------------------------------------------------------------ *)

(* The op universe: two guest page tables (PCIDs 1/2), two EPTs on the
   EPTP list, a handful of VAs spanning distinct PDE/PDPTE/PML4E
   prefixes, and a small pool of data frames. *)

let vas = [| 0x400000; 0x401000; 0x402000; 0x600000; 0x4000_0000; 0x80_0000_0000 |]
let flag_pool = [| Pte.urw; Pte.ur; Pte.rw |]

type world = {
  mem : Phys_mem.t;
  alloc : Frame_alloc.t;
  vcpu : Vcpu.t;
  pts : Page_table.t array;
  epts : Ept.t array;
  frames : int array;
}

let mk_world () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let pts = [| Page_table.create alloc; Page_table.create alloc |] in
  let frames = Array.init 6 (fun _ -> Frame_alloc.alloc_frame alloc) in
  let base = Ept.create alloc in
  Ept.map_identity_1g base ~mem ~alloc ~gib:1;
  let epts =
    [| Ept.clone_shallow base ~mem ~alloc; Ept.clone_shallow base ~mem ~alloc |]
  in
  let vmcs = Vmcs.create ~vpid:true () in
  Vmcs.install_list vmcs [ Ept.root_pa epts.(0); Ept.root_pa epts.(1) ];
  Vcpu.enter_non_root vcpu vmcs;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pts.(0)) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  { mem; alloc; vcpu; pts; epts; frames }

(* One op = (tag, a, b, c) small ints; interpretation below. Every
   translate op compares the accelerated walker against the reference. *)
let apply w ok (tag, a, b, c) =
  let va = vas.(a mod Array.length vas) in
  let frame = w.frames.(b mod Array.length w.frames) in
  match tag mod 8 with
  | 0 ->
    Page_table.map w.pts.(a mod 2) ~mem:w.mem ~alloc:w.alloc ~va ~pa:frame
      ~flags:flag_pool.(c mod Array.length flag_pool)
  | 1 -> Page_table.unmap w.pts.(a mod 2) ~mem:w.mem ~va
  | 2 -> Vcpu.invlpg w.vcpu ~va
  | 3 ->
    let i = a mod 2 in
    Vcpu.write_cr3 w.vcpu ~cr3:(Page_table.root_pa w.pts.(i)) ~pcid:(i + 1)
  | 4 -> Vmfunc.execute w.vcpu ~func:0 ~index:(a mod 2)
  | 5 -> Ept.unmap_4k w.epts.(a mod 2) ~mem:w.mem ~alloc:w.alloc ~gpa:frame
  | 6 ->
    Ept.remap_gpa w.epts.(a mod 2) ~mem:w.mem ~alloc:w.alloc ~gpa:frame
      ~hpa:w.frames.(c mod Array.length w.frames)
  | _ ->
    let write = c land 1 = 1 in
    let acc = if write then Translate.data_write else Translate.data_read in
    let got = outcome (fun () -> Translate.translate w.vcpu w.mem acc ~va) in
    let want = outcome (fun () -> ref_translate w.vcpu w.mem ~write ~va) in
    if got <> want then
      ok :=
        Some
          (Printf.sprintf "va=%x write=%b: accelerated=%s reference=%s" va
             write got want)

(* The property, with the acceleration structures on (the shipped
   configuration) or off (the walker's cache-free branch). *)
let prop_equals_reference ~name ~accel =
  QCheck.Test.make ~name ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (quad (int_bound 7) (int_bound 15) (int_bound 15) (int_bound 15)))
    (fun ops ->
      let saved = Accel.is_enabled () in
      Accel.set_enabled accel;
      Fun.protect ~finally:(fun () -> Accel.set_enabled saved) @@ fun () ->
      let w = mk_world () in
      let bad = ref None in
      List.iter (apply w bad) ops;
      (* Sweep every VA at the end so sequences ending in mutations are
         still checked. *)
      List.iteri (fun i _ -> apply w bad (7, i, 0, i)) (Array.to_list vas);
      match !bad with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_accel_equals_reference =
  prop_equals_reference ~accel:true
    ~name:"accelerated translation == cache-free reference under mutations"

let prop_noaccel_equals_reference =
  prop_equals_reference ~accel:false
    ~name:"accel-off walker == cache-free reference under mutations"

(* ------------------------------------------------------------------ *)
(* Targeted regressions                                                 *)
(* ------------------------------------------------------------------ *)

(* A guest unmap must fault on the very next access: neither the TLB
   nor the PSCs may serve the stale leaf. *)
let test_stale_psc_after_unmap () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let frame = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:frame ~flags:Pte.urw;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pt) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  (* Warm every structure: TLB and PSCs, then TLB hits. *)
  for _ = 1 to 3 do
    ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000)
  done;
  Page_table.unmap pt ~mem ~va:0x400000;
  match
    outcome (fun () -> Translate.translate vcpu mem Translate.data_read ~va:0x400000)
  with
  | "not_present:400000" -> ()
  | other -> Alcotest.failf "expected not_present after unmap, got %s" other

(* An EPT unmap must likewise be visible immediately, even though the
   guest page table is untouched. *)
let test_stale_tlb_after_ept_unmap () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let frame = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:frame ~flags:Pte.urw;
  let ept = Ept.create alloc in
  Ept.map_identity_1g ept ~mem ~alloc ~gib:1;
  let vmcs = Vmcs.create ~vpid:true () in
  Vmcs.install_list vmcs [ Ept.root_pa ept ];
  Vcpu.enter_non_root vcpu vmcs;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pt) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  for _ = 1 to 3 do
    ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000)
  done;
  Ept.unmap_4k ept ~mem ~alloc ~gpa:frame;
  match
    outcome (fun () -> Translate.translate vcpu mem Translate.data_read ~va:0x400000)
  with
  | "ept_violation" -> ()
  | other -> Alcotest.failf "expected ept_violation after EPT unmap, got %s" other

(* A walk that faults charges nothing: with the frame holding the guest
   PML4 EPT-unmapped and every translation structure cold, the nested
   walk reads EPT entries until the missing leaf and raises without
   having charged a cycle or touched the cache hierarchy — exactly as
   [Ept.walk] returning [Error] before any entry is charged. *)
let test_faulting_walk_charges_nothing () =
  let check accel =
    let saved = Accel.is_enabled () in
    Accel.set_enabled accel;
    Fun.protect ~finally:(fun () -> Accel.set_enabled saved) @@ fun () ->
    let w = mk_world () in
    let cr3 = Page_table.root_pa w.pts.(0) in
    Page_table.map w.pts.(0) ~mem:w.mem ~alloc:w.alloc ~va:vas.(0) ~pa:w.frames.(0)
      ~flags:Pte.urw;
    Ept.unmap_4k w.epts.(0) ~mem:w.mem ~alloc:w.alloc ~gpa:cr3;
    let cpu = Vcpu.cpu w.vcpu in
    let snapshot () =
      ( Cpu.cycles cpu,
        [ Cache.hits (Cpu.l1d cpu); Cache.misses (Cpu.l1d cpu);
          Cache.hits (Cpu.l2 cpu); Cache.misses (Cpu.l2 cpu) ] )
    in
    let before = snapshot () in
    (match Translate.translate w.vcpu w.mem Translate.data_read ~va:vas.(0) with
    | _ -> Alcotest.fail "translation through an unmapped PML4 succeeded"
    | exception Ept.Ept_violation (Ept.Ept_not_present gpa) ->
      Alcotest.(check int) "faulting GPA is the PML4's" cr3 gpa);
    let cycles, counts = snapshot () in
    Alcotest.(check int) (Printf.sprintf "no cycles charged (accel %b)" accel) (fst before)
      cycles;
    Alcotest.(check (list int))
      (Printf.sprintf "no L1D/L2 hits or misses (accel %b)" accel)
      (snd before) counts
  in
  check true;
  check false

(* Figure-6 configuration: the same VA resolves through different guest
   page tables on either side of a VMFUNC (CR3-remap trick). The TLB
   entry filled under the client's ASID must never answer for the
   server's, and vice versa — with VPID on, so nothing is flushed. *)
let test_tlb_across_vmfunc () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let client_pt = Page_table.create alloc in
  let server_pt = Page_table.create alloc in
  let va = 0x400000 in
  let client_frame = Frame_alloc.alloc_frame alloc in
  let server_frame = Frame_alloc.alloc_frame alloc in
  Page_table.map client_pt ~mem ~alloc ~va ~pa:client_frame ~flags:Pte.urw;
  Page_table.map server_pt ~mem ~alloc ~va ~pa:server_frame ~flags:Pte.urw;
  let base = Ept.create alloc in
  Ept.map_identity_1g base ~mem ~alloc ~gib:1;
  let client_ept = Ept.clone_shallow base ~mem ~alloc in
  let server_ept = Ept.clone_shallow base ~mem ~alloc in
  Ept.remap_gpa server_ept ~mem ~alloc
    ~gpa:(Page_table.root_pa client_pt)
    ~hpa:(Page_table.root_pa server_pt);
  let vmcs = Vmcs.create ~vpid:true () in
  Vmcs.install_list vmcs [ Ept.root_pa client_ept; Ept.root_pa server_ept ];
  Vcpu.enter_non_root vcpu vmcs;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa client_pt) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  let xlate () = Translate.translate vcpu mem Translate.data_read ~va in
  (* Three accesses: a refill, then TLB hits under the client's ASID. *)
  for _ = 1 to 3 do
    Alcotest.(check int) "client frame" client_frame (xlate ())
  done;
  Vmfunc.execute vcpu ~func:0 ~index:1;
  for _ = 1 to 3 do
    Alcotest.(check int) "server frame after VMFUNC" server_frame (xlate ())
  done;
  Vmfunc.execute vcpu ~func:0 ~index:0;
  Alcotest.(check int) "client frame again" client_frame (xlate ())

(* ------------------------------------------------------------------ *)
(* Tlb / Psc flush-path units (the O(1) generation/floor machinery)     *)
(* ------------------------------------------------------------------ *)

let e ppn = { Tlb.ppn; page_shift = 12; writable = true; user = true }

let test_tlb_flush_all_then_reuse () =
  let t = Tlb.create ~entries:16 ~ways:4 in
  Tlb.insert t ~asid:1 ~vpn:5 (e 100);
  Tlb.insert t ~asid:2 ~vpn:9 (e 200);
  Tlb.flush_all t;
  Alcotest.(check bool) "asid1 gone" true (Tlb.lookup t ~asid:1 ~vpn:5 = None);
  Alcotest.(check bool) "asid2 gone" true (Tlb.lookup t ~asid:2 ~vpn:9 = None);
  (* Slots are reusable after the generation bump. *)
  Tlb.insert t ~asid:1 ~vpn:5 (e 300);
  Alcotest.(check bool) "reinsert lives" true
    (Tlb.lookup t ~asid:1 ~vpn:5 = Some (e 300))

let test_tlb_flush_asid_is_selective () =
  let t = Tlb.create ~entries:16 ~ways:4 in
  Tlb.insert t ~asid:1 ~vpn:5 (e 100);
  Tlb.insert t ~asid:2 ~vpn:5 (e 200);
  Tlb.flush_asid t ~asid:1;
  Alcotest.(check bool) "asid1 flushed" true (Tlb.lookup t ~asid:1 ~vpn:5 = None);
  Alcotest.(check bool) "asid2 survives" true
    (Tlb.lookup t ~asid:2 ~vpn:5 = Some (e 200));
  (* A fresh insert under the flushed ASID must not be floored away. *)
  Tlb.insert t ~asid:1 ~vpn:5 (e 300);
  Alcotest.(check bool) "post-flush insert lives" true
    (Tlb.lookup t ~asid:1 ~vpn:5 = Some (e 300))

let test_psc_flush_key_all_asids () =
  let p = Psc.create ~entries:16 ~ways:4 in
  Psc.insert p ~asid:1 ~key:7 100;
  Psc.insert p ~asid:2 ~key:7 200;
  Psc.insert p ~asid:1 ~key:8 300;
  Psc.flush_key p ~key:7;
  Alcotest.(check int) "key 7 asid 1 gone" Psc.miss (Psc.lookup p ~asid:1 ~key:7);
  Alcotest.(check int) "key 7 asid 2 gone" Psc.miss (Psc.lookup p ~asid:2 ~key:7);
  Alcotest.(check int) "key 8 survives" 300 (Psc.lookup p ~asid:1 ~key:8)

let test_accel_toggle_flushes_everything () =
  let t = Tlb.create ~entries:16 ~ways:4 in
  Tlb.insert t ~asid:1 ~vpn:5 (e 100);
  let saved = Accel.is_enabled () in
  Fun.protect
    ~finally:(fun () -> Accel.set_enabled saved)
    (fun () ->
      Accel.set_enabled false;
      Accel.set_enabled true);
  Alcotest.(check bool) "epoch bump invalidates" true
    (Tlb.lookup t ~asid:1 ~vpn:5 = None)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "translation"
    [
      ( "equivalence",
        qc [ prop_accel_equals_reference; prop_noaccel_equals_reference ] );
      ( "staleness",
        [
          Alcotest.test_case "guest unmap faults immediately" `Quick
            test_stale_psc_after_unmap;
          Alcotest.test_case "faulting walk charges nothing" `Quick
            test_faulting_walk_charges_nothing;
          Alcotest.test_case "EPT unmap faults immediately" `Quick
            test_stale_tlb_after_ept_unmap;
          Alcotest.test_case "TLB respects VMFUNC ASID" `Quick
            test_tlb_across_vmfunc;
        ] );
      ( "flush_paths",
        [
          Alcotest.test_case "flush_all generation bump" `Quick
            test_tlb_flush_all_then_reuse;
          Alcotest.test_case "flush_asid floor is selective" `Quick
            test_tlb_flush_asid_is_selective;
          Alcotest.test_case "INVLPG drops PSC keys across ASIDs" `Quick
            test_psc_flush_key_all_asids;
          Alcotest.test_case "accel toggle invalidates via epoch" `Quick
            test_accel_toggle_flushes_everything;
        ] );
    ]
