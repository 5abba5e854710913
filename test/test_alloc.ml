(* Host-allocation regression tests for the simulator's per-event paths.

   Every simulated memory access, cache-hierarchy walk, TLB hit, TLB
   refill (nested guest + EPT walk), notification signal/wait and
   scheduler step runs millions of times per benchmark round; a single
   closure, option, tuple or boxed int64 on one of them turns into
   minor-GC work that dominates host time (and, with several domains,
   stop-the-world pauses). Each test measures [Gc.minor_words] over
   [iters] repetitions of one operation after a warm-up, and checks the
   words per operation against a bound set from measurement. *)

open Sky_sim
open Sky_mmu
open Sky_ukernel
open Sky_kernels

let iters = 10_000

(* Words allocated by [iters] calls of [f], net of the measuring
   harness's own allocation (calibrated on a no-op). *)
let words f =
  let run f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    Gc.minor_words () -. before
  in
  let overhead = run (fun () -> ()) in
  int_of_float (run f -. overhead)

let check_words name ~per_op f =
  let w = words f in
  if w > per_op * iters then
    Alcotest.failf "%s: %d words over %d ops (%.2f/op), bound %d/op" name w iters
      (float_of_int w /. float_of_int iters)
      per_op

let check_zero name f = check_words name ~per_op:0 f

(* ------------------------------------------------------------------ *)
(* Cache hierarchy                                                      *)
(* ------------------------------------------------------------------ *)

let l1 () = Cache.create ~name:"l1" ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64

(* [n] distinct lines that all index set 0 of [c]: cycling through more
   of them than the set has ways misses on every access under LRU. *)
let conflicting c n i = (i mod n) * Cache.sets c * Cache.line_bytes c

let test_cache_access () =
  let c = l1 () in
  check_zero "Cache.access hit" (fun () -> ignore (Cache.access c 0x40));
  let i = ref 0 in
  let misses0 = Cache.misses c in
  check_zero "Cache.access miss" (fun () ->
      incr i;
      ignore (Cache.access c (conflicting c 16 !i)));
  Alcotest.(check int) "every conflicting access missed" (iters + 1)
    (Cache.misses c - misses0)

let test_memsys_access () =
  let m = Machine.create ~cores:1 ~mem_mib:16 () in
  let cpu = Machine.core m 0 in
  check_zero "Memsys.access L1 hit" (fun () -> Memsys.access cpu Memsys.Data 0x1000);
  (* Same set in L1, L2 and L3: 32 lines 512 KiB apart miss every level. *)
  let i = ref 0 in
  let dram0 = Cache.misses (Cpu.l3 cpu) in
  check_zero "Memsys.access DRAM miss" (fun () ->
      incr i;
      Memsys.access cpu Memsys.Data ((!i mod 32) * 512 * 1024));
  Alcotest.(check int) "every access reached DRAM" (iters + 1)
    (Cache.misses (Cpu.l3 cpu) - dram0)

(* ------------------------------------------------------------------ *)
(* Paging-structure cache probe                                         *)
(* ------------------------------------------------------------------ *)

let test_psc_probe () =
  let p = Psc.create ~name:"pde" ~entries:32 ~ways:4 in
  Psc.insert p ~asid:1 ~key:7 0x5000;
  check_zero "Psc.lookup hit" (fun () ->
      if Psc.lookup p ~asid:1 ~key:7 <> 0x5000 then Alcotest.fail "lost the entry");
  check_zero "Psc.lookup miss" (fun () ->
      if Psc.lookup p ~asid:1 ~key:8 <> Psc.miss then Alcotest.fail "phantom hit");
  (* A sweep of another ASID leaves the entry live and the probe free. *)
  Psc.flush_asid p ~asid:2;
  check_zero "Psc.lookup after flush_asid" (fun () ->
      if Psc.lookup p ~asid:1 ~key:7 <> 0x5000 then Alcotest.fail "lost the entry")

(* ------------------------------------------------------------------ *)
(* Notifications                                                        *)
(* ------------------------------------------------------------------ *)

let test_notification_pair () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let k = Kernel.create machine in
  let n = Notification.create k ~name:"irq" in
  (* Steady state of an IRQ consumer: block, get kicked by a cross-core
     signal (one IPI), consume. *)
  check_zero "Notification block/signal/wait" (fun () ->
      (try ignore (Notification.wait n ~core:0) with Notification.Would_block -> ());
      Notification.signal n ~core:1 ~badge:1;
      ignore (Notification.wait n ~core:0));
  Alcotest.(check int) "one IPI per blocked wait" (iters + 1) (Notification.ipis n)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

let test_run_until_step () =
  let machine = Machine.create ~cores:3 ~mem_mib:16 () in
  let steps = ref 0 in
  (* Cores charge different amounts, so the laggard changes from step to
     step; every third step reports Idle to exercise the hop. *)
  let step ~core =
    incr steps;
    if !steps mod 3 = 0 then Machine.Idle
    else begin
      Cpu.charge (Machine.core machine core) (10 + core);
      Machine.Progress
    end
  in
  let run = Machine.start_run machine ~cores:[ 0; 1; 2 ] in
  let until = ref 0 in
  check_zero "Machine.run_until step" (fun () ->
      (* Each call advances the boundary just past the laggard: one or a
         few steps per call. *)
      until := Machine.max_cycles machine + 1;
      match Machine.run_until machine run ~step ~until:!until with
      | `Paused -> ()
      | `Done -> Alcotest.fail "no core finishes");
  Alcotest.(check bool) "steps ran" true (!steps >= iters)

(* ------------------------------------------------------------------ *)
(* Translation                                                          *)
(* ------------------------------------------------------------------ *)

(* A pingpong-shaped rig: a Subkernel-virtualized kernel (base EPT with
   1 GiB pages, per-process EPTs) and a client whose working set is
   larger than the 64-entry dTLB, in user mode on core 0. *)
let ws_pages = 96

let rig () =
  let machine = Machine.create ~cores:2 ~mem_mib:128 () in
  let kernel = Kernel.create machine in
  let _sb = Sky_core.Subkernel.init kernel in
  let client = Kernel.spawn kernel ~name:"client" in
  let ws = Kernel.map_anon kernel client (ws_pages * 4096) in
  Kernel.context_switch kernel ~core:0 client;
  let vcpu = Kernel.vcpu kernel ~core:0 in
  Vcpu.set_mode vcpu Vcpu.User;
  (vcpu, Kernel.mem kernel, ws)

let test_translate_hit () =
  let vcpu, mem, ws = rig () in
  let dtlb = Cpu.dtlb (Vcpu.cpu vcpu) in
  check_zero "Translate.translate hot-line hit" (fun () ->
      ignore (Translate.translate vcpu mem Translate.data_read ~va:ws));
  (* Two pages 16 apart share a hot line, so each evicts the other's and
     the hit is served by the TLB set scan instead. *)
  let flip = ref false in
  let va () = if !flip then ws else ws + (16 * 4096) in
  ignore (Translate.translate vcpu mem Translate.data_write ~va:(va ()));
  let misses0 = Sky_sim.Tlb.misses dtlb in
  check_zero "Translate.translate TLB-scan hit" (fun () ->
      flip := not !flip;
      ignore (Translate.translate vcpu mem Translate.data_write ~va:(va ())));
  Alcotest.(check int) "all hits" misses0 (Sky_sim.Tlb.misses dtlb)

let test_translate_miss () =
  let check accel =
    let vcpu, mem, ws = rig () in
    let saved = Accel.is_enabled () in
    Accel.set_enabled accel;
    Fun.protect ~finally:(fun () -> Accel.set_enabled saved) @@ fun () ->
    let dtlb = Cpu.dtlb (Vcpu.cpu vcpu) in
    let page = ref 0 in
    let misses0 = Sky_sim.Tlb.misses dtlb in
    check_zero
      (Printf.sprintf "Translate.translate TLB miss (accel %b)" accel)
      (fun () ->
        page := (!page + 1) mod ws_pages;
        let va = ws + (!page * 4096) in
        ignore (Translate.translate vcpu mem Translate.data_read ~va));
    (* Sequential pages over 16 sets x 4 ways: 6 pages per set cycle
       through LRU, so every translation refills. *)
    Alcotest.(check int) "every translation missed the TLB" (iters + 1)
      (Sky_sim.Tlb.misses dtlb - misses0)
  in
  check true;
  check false

(* ------------------------------------------------------------------ *)
(* Mediated call                                                        *)
(* ------------------------------------------------------------------ *)

(* The pingpong rig's VMFUNC call, handler included. Not zero: the
   server's four [read_u64] results are boxed [int64]s (3 words each),
   and the call path still allocates its call-stack frame, its result
   and its return-path closures. The bound is the measured value, so a
   new per-call allocation fails here; the span name, the server and
   binding lookups and the callee-saved register save allocate
   nothing. *)
let test_direct_call () =
  let machine = Machine.create ~cores:2 ~mem_mib:128 () in
  let kernel = Kernel.create machine in
  let sb = Sky_core.Subkernel.init kernel in
  let client = Kernel.spawn kernel ~name:"client" in
  let server = Kernel.spawn kernel ~name:"server" in
  let vcpu = Kernel.vcpu kernel ~core:0 in
  let mem = Kernel.mem kernel in
  let server_ws = Kernel.map_anon kernel server (4 * 4096) in
  let handler ~core:_ m =
    for page = 0 to 3 do
      ignore (Translate.read_u64 vcpu mem ~va:(server_ws + (page * 4096)))
    done;
    m
  in
  let server_id = Sky_core.Subkernel.register_server sb server handler in
  Sky_core.Subkernel.register_client_to_server sb client ~server_id;
  Kernel.context_switch kernel ~core:0 client;
  Vcpu.set_mode vcpu Vcpu.User;
  let msg = Bytes.create 8 in
  check_words "Subkernel.direct_server_call (VMFUNC)" ~per_op:141 (fun () ->
      ignore (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client ~server_id msg))

let () =
  Alcotest.run "alloc"
    [
      ( "memory",
        [
          Alcotest.test_case "Cache.access" `Quick test_cache_access;
          Alcotest.test_case "Memsys.access" `Quick test_memsys_access;
          Alcotest.test_case "PSC probe" `Quick test_psc_probe;
        ] );
      ( "translation",
        [
          Alcotest.test_case "TLB hit" `Quick test_translate_hit;
          Alcotest.test_case "TLB miss (nested walk)" `Quick test_translate_miss;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "direct_server_call" `Quick test_direct_call;
          Alcotest.test_case "notification signal/wait" `Quick test_notification_pair;
          Alcotest.test_case "run_until step" `Quick test_run_until_step;
        ] );
    ]
