(* Tests for the microkernel substrate and the three baseline IPC paths. *)

open Sky_sim
open Sky_ukernel
open Sky_kernels

let make ?(variant = Config.Sel4) ?(kpti = false) ?(cores = 4) () =
  let machine = Machine.create ~cores ~mem_mib:64 () in
  let config = { (Config.default variant) with Config.kpti } in
  let k = Kernel.create ~config machine in
  (k, Ipc.create k)

(* ------------------------------------------------------------------ *)
(* Kernel basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_spawn_distinct () =
  let k, _ = make () in
  let a = Kernel.spawn k ~name:"a" in
  let b = Kernel.spawn k ~name:"b" in
  Alcotest.(check bool) "distinct pids" true (a.Proc.pid <> b.Proc.pid);
  Alcotest.(check bool) "distinct page tables" true (Proc.cr3 a <> Proc.cr3 b);
  Alcotest.(check bool) "identity frames differ" true
    (a.Proc.identity_frame <> b.Proc.identity_frame)

let test_map_code_roundtrip () =
  let k, _ = make () in
  let p = Kernel.spawn k ~name:"p" in
  let code = Sky_isa.Encode.encode_all [ Sky_isa.Insn.Nop; Sky_isa.Insn.Ret ] in
  let va = Kernel.map_code k p code in
  Alcotest.(check int) "at code base" Layout.code_va va;
  match Kernel.proc_code_bytes k p with
  | [ (va', back) ] ->
    Alcotest.(check int) "same va" va va';
    Alcotest.(check bool) "bytes readable back" true (Bytes.equal code back)
  | _ -> Alcotest.fail "expected one region"

let test_write_code_patches () =
  let k, _ = make () in
  let p = Kernel.spawn k ~name:"p" in
  let code = Bytes.make 8192 '\x90' in
  let va = Kernel.map_code k p code in
  Kernel.write_code k p ~va:(va + 5000) (Bytes.of_string "\xc3");
  match Kernel.proc_code_bytes k p with
  | [ (_, back) ] -> Alcotest.(check char) "patched across pages" '\xc3' (Bytes.get back 5000)
  | _ -> Alcotest.fail "expected one region"

let test_context_switch_costs () =
  let k, _ = make () in
  let a = Kernel.spawn k ~name:"a" and b = Kernel.spawn k ~name:"b" in
  let c = Kernel.cpu k ~core:0 in
  Kernel.context_switch k ~core:0 a;
  let t0 = Cpu.cycles c in
  Kernel.context_switch k ~core:0 b;
  Alcotest.(check int) "one CR3 write" Costs.cr3_write (Cpu.cycles c - t0);
  let t1 = Cpu.cycles c in
  Kernel.context_switch k ~core:0 b;
  Alcotest.(check int) "same process is free" 0 (Cpu.cycles c - t1)

let test_kernel_entry_exit_cost () =
  let k, _ = make () in
  let c = Kernel.cpu k ~core:0 in
  Kernel.kernel_entry k ~core:0;
  Kernel.kernel_exit k ~core:0;
  Alcotest.(check int) "mode switch = 209 cycles"
    (Costs.syscall + (2 * Costs.swapgs) + Costs.sysret)
    (Cpu.cycles c)

let test_kpti_doubles_switches () =
  let k, _ = make ~kpti:true () in
  let c = Kernel.cpu k ~core:0 in
  Kernel.kernel_entry k ~core:0;
  Kernel.kernel_exit k ~core:0;
  Alcotest.(check int) "mode switch + 2 CR3 writes"
    (Costs.syscall + (2 * Costs.swapgs) + Costs.sysret + (2 * Costs.cr3_write))
    (Cpu.cycles c)

let test_ipi_advances_target () =
  let k, _ = make () in
  let c0 = Kernel.cpu k ~core:0 and c1 = Kernel.cpu k ~core:1 in
  Cpu.charge c0 10_000;
  Kernel.send_ipi k ~from_core:0 ~to_core:1;
  Alcotest.(check int) "sender charged" (10_000 + Costs.ipi) (Cpu.cycles c0);
  Alcotest.(check int) "target caught up" (10_000 + Costs.ipi) (Cpu.cycles c1)

(* ------------------------------------------------------------------ *)
(* Lock                                                                *)
(* ------------------------------------------------------------------ *)

let test_lock_serializes () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let l = Lock.create "big" in
  let a = Machine.core machine 0 and b = Machine.core machine 1 in
  Lock.with_lock l a (fun () -> Cpu.charge a 1000);
  (* Core b arrives "earlier" in its own time but must wait for a's
     release. *)
  Lock.acquire l b;
  Alcotest.(check bool) "b waited" true (Cpu.cycles b >= 1000);
  Alcotest.(check int) "one contended acquisition" 1 l.Lock.contended;
  Lock.release l b

let test_lock_uncontended_cheap () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let l = Lock.create "l" in
  let a = Machine.core machine 0 in
  Lock.with_lock l a (fun () -> ());
  Lock.with_lock l a (fun () -> ());
  Alcotest.(check int) "no contention" 0 l.Lock.contended

(* ------------------------------------------------------------------ *)
(* IPC paths                                                           *)
(* ------------------------------------------------------------------ *)

let echo ~core:_ msg = msg

let setup_ipc ?variant ?(server_cores = []) () =
  let k, ipc = make ?variant () in
  let client = Kernel.spawn k ~name:"client" in
  let server = Kernel.spawn k ~name:"server" in
  let ep = Ipc.register ipc server ~cores:server_cores echo in
  Kernel.context_switch k ~core:0 client;
  (k, ipc, client, ep)

let roundtrip ?(core = 0) (k, ipc, client, ep) msg =
  let c = Kernel.cpu k ~core in
  let before = Cpu.cycles c in
  let reply = Ipc.call ipc ~core ~client ep msg in
  (reply, Cpu.cycles c - before)

(* A message over the 8 KiB IPC buffer is refused with the typed
   [Message_too_large]: a request before the kernel is entered (nothing
   charged), a reply without its copy, the reply leg still taking the
   client home in user mode. The parent of this change raised
   [Page_fault] in the middle of a leg, with the kernel entered. Both
   dispatches: the local path and the cross-core (ST-Server) one. *)
let test_oversized_message () =
  let limit = Ipc.ipc_buffer_size in
  List.iter
    (fun server_cores ->
      let what = if server_cores = [] then "local" else "cross-core" in
      let k, ipc = make () in
      let client = Kernel.spawn k ~name:"client" in
      let server = Kernel.spawn k ~name:"server" in
      let reply_len = ref (-1) in
      let ep =
        Ipc.register ipc server ~cores:server_cores (fun ~core:_ msg ->
            if !reply_len < 0 then msg else Bytes.make !reply_len 'r')
      in
      Kernel.context_switch k ~core:0 client;
      let vcpu = Kernel.vcpu k ~core:0 and cpu = Kernel.cpu k ~core:0 in
      let at_home label =
        Alcotest.(check bool) (what ^ ": " ^ label ^ ", user mode") true
          (vcpu.Sky_mmu.Vcpu.mode = Sky_mmu.Vcpu.User);
        Alcotest.(check bool) (what ^ ": " ^ label ^ ", client running") true
          (match k.Kernel.running.(0) with
          | Some p -> p.Proc.pid = client.Proc.pid
          | None -> false)
      in
      let full = Bytes.make limit 'f' in
      Alcotest.(check bool) (what ^ ": 8 KiB echoes") true
        (Bytes.equal full (Ipc.call ipc ~core:0 ~client ep full));
      let cycles0 = Cpu.cycles cpu in
      (match Ipc.call ipc ~core:0 ~client ep (Bytes.make (limit + 1) 'x') with
      | _ -> Alcotest.failf "%s: an 8,193-byte request must be refused" what
      | exception Ipc.Message_too_large { len; limit = l } ->
        Alcotest.(check (pair int int)) (what ^ ": request error") (limit + 1, limit) (len, l));
      Alcotest.(check int) (what ^ ": request refused before any charge") cycles0
        (Cpu.cycles cpu);
      at_home "after the request";
      reply_len := limit;
      Alcotest.(check int) (what ^ ": 8 KiB reply") limit
        (Bytes.length (Ipc.call ipc ~core:0 ~client ep (Bytes.make 8 'm')));
      reply_len := limit + 1;
      (match Ipc.call ipc ~core:0 ~client ep (Bytes.make 8 'm') with
      | _ -> Alcotest.failf "%s: an 8,193-byte reply must be refused" what
      | exception Ipc.Message_too_large { len; _ } ->
        Alcotest.(check int) (what ^ ": reply error") (limit + 1) len);
      at_home "after the reply";
      reply_len := -1;
      Alcotest.(check string) (what ^ ": next call echoes") "ping"
        (Bytes.to_string (Ipc.call ipc ~core:0 ~client ep (Bytes.of_string "ping"))))
    [ []; [ 1 ] ]

let test_sel4_fastpath_direct_cost () =
  let env = setup_ipc () in
  (* Warm up, then measure the steady-state roundtrip. *)
  ignore (roundtrip env (Bytes.create 8));
  let reply, cycles = roundtrip env (Bytes.create 8) in
  Alcotest.(check int) "echo" 8 (Bytes.length reply);
  (* §6.3: seL4 fastpath roundtrip = 986 cycles. Ours must be exactly
     2 x 493 of direct cost. *)
  Alcotest.(check int) "fastpath roundtrip = 986" 986 cycles

let test_sel4_long_message_slowpath () =
  let env = setup_ipc () in
  ignore (roundtrip env (Bytes.create 1024));
  let reply, cycles = roundtrip env (Bytes.create 1024) in
  Alcotest.(check int) "echo" 1024 (Bytes.length reply);
  Alcotest.(check bool) "slower than fastpath" true (cycles > 986)

let test_cross_core_includes_ipis () =
  let k, ipc, client, ep = setup_ipc ~server_cores:[ 1 ] () in
  ignore (roundtrip (k, ipc, client, ep) (Bytes.create 8));
  let _, cycles = roundtrip (k, ipc, client, ep) (Bytes.create 8) in
  Alcotest.(check bool) "cross-core costs at least 2 IPIs" true
    (cycles > 2 * Costs.ipi);
  Alcotest.(check bool) "records IPIs" true (ep.Ipc.stats.Breakdown.ipi > 0)

let test_variant_ordering () =
  (* Figure 7 ordering: seL4 < Fiasco < Zircon for single-core IPC. *)
  let measure variant =
    let env = setup_ipc ~variant () in
    for _ = 1 to 10 do
      ignore (roundtrip env (Bytes.create 8))
    done;
    let _, cycles = roundtrip env (Bytes.create 8) in
    cycles
  in
  let s = measure Config.Sel4
  and f = measure Config.Fiasco
  and z = measure Config.Zircon in
  Alcotest.(check bool) (Printf.sprintf "sel4 (%d) < fiasco (%d)" s f) true (s < f);
  Alcotest.(check bool) (Printf.sprintf "fiasco (%d) < zircon (%d)" f z) true (f < z)

let test_handler_sees_message () =
  let k, ipc = make () in
  let client = Kernel.spawn k ~name:"c" in
  let server = Kernel.spawn k ~name:"s" in
  let seen = ref "" in
  let ep =
    Ipc.register ipc server (fun ~core:_ msg ->
        seen := Bytes.to_string msg;
        Bytes.of_string ("re:" ^ Bytes.to_string msg))
  in
  let reply = Ipc.call ipc ~core:0 ~client ep (Bytes.of_string "hello") in
  Alcotest.(check string) "handler saw" "hello" !seen;
  Alcotest.(check string) "reply" "re:hello" (Bytes.to_string reply)

let test_nested_ipc () =
  (* client -> fs -> disk, the SQLite shape. *)
  let k, ipc = make () in
  let client = Kernel.spawn k ~name:"client" in
  let fs = Kernel.spawn k ~name:"fs" in
  let disk = Kernel.spawn k ~name:"disk" in
  let disk_ep = Ipc.register ipc disk (fun ~core:_ _ -> Bytes.of_string "block") in
  let fs_ep =
    Ipc.register ipc fs (fun ~core msg ->
        let b = Ipc.call ipc ~core ~client:fs disk_ep msg in
        Bytes.of_string ("fs+" ^ Bytes.to_string b))
  in
  let reply = Ipc.call ipc ~core:0 ~client fs_ep (Bytes.of_string "read") in
  Alcotest.(check string) "nested pipeline" "fs+block" (Bytes.to_string reply)

let test_ipc_pollutes_tlb () =
  (* The Table 1 effect: IPC evicts the client's TLB entries (CR3 writes
     flush without PCID). *)
  let k, ipc, client, ep = setup_ipc () in
  let vcpu = Kernel.vcpu k ~core:0 in
  let mem = Kernel.mem k in
  let va = Kernel.map_anon k client 4096 in
  Sky_mmu.Vcpu.set_mode vcpu Sky_mmu.Vcpu.User;
  ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va);
  let dtlb = Cpu.dtlb (Kernel.cpu k ~core:0) in
  Tlb.reset_stats dtlb;
  ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va);
  Alcotest.(check int) "hit before IPC" 1 (Tlb.hits dtlb);
  ignore (Ipc.call ipc ~core:0 ~client ep (Bytes.create 8));
  Tlb.reset_stats dtlb;
  ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va);
  Alcotest.(check int) "miss after IPC" 1 (Tlb.misses dtlb)

let test_breakdown_totals () =
  let k, ipc, client, ep = setup_ipc () in
  ignore (k, ipc, client);
  ignore (roundtrip (k, ipc, client, ep) (Bytes.create 8));
  let bd = ep.Ipc.stats in
  Alcotest.(check bool) "syscall component present" true (bd.Breakdown.syscall > 0);
  Alcotest.(check bool) "ctx component present" true (bd.Breakdown.ctx > 0);
  Alcotest.(check int) "no vmfunc in baseline IPC" 0 bd.Breakdown.vmfunc

let () =
  Alcotest.run "ukernel"
    [
      ( "kernel",
        [
          Alcotest.test_case "spawn" `Quick test_spawn_distinct;
          Alcotest.test_case "map_code roundtrip" `Quick test_map_code_roundtrip;
          Alcotest.test_case "write_code patches" `Quick test_write_code_patches;
          Alcotest.test_case "context switch cost" `Quick test_context_switch_costs;
          Alcotest.test_case "kernel entry/exit = 209" `Quick test_kernel_entry_exit_cost;
          Alcotest.test_case "KPTI adds 2 CR3 writes" `Quick test_kpti_doubles_switches;
          Alcotest.test_case "IPI timing" `Quick test_ipi_advances_target;
        ] );
      ( "lock",
        [
          Alcotest.test_case "serializes cores" `Quick test_lock_serializes;
          Alcotest.test_case "uncontended cheap" `Quick test_lock_uncontended_cheap;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "seL4 fastpath = 986 cycles" `Quick
            test_sel4_fastpath_direct_cost;
          Alcotest.test_case "long message leaves fastpath" `Quick
            test_sel4_long_message_slowpath;
          Alcotest.test_case "cross-core pays IPIs" `Quick test_cross_core_includes_ipis;
          Alcotest.test_case "seL4 < Fiasco < Zircon" `Quick test_variant_ordering;
          Alcotest.test_case "handler sees message" `Quick test_handler_sees_message;
          Alcotest.test_case "nested IPC (client->fs->disk)" `Quick test_nested_ipc;
          Alcotest.test_case "IPC pollutes TLB (Table 1)" `Quick test_ipc_pollutes_tlb;
          Alcotest.test_case "breakdown accounting" `Quick test_breakdown_totals;
          Alcotest.test_case "oversized message -> typed error" `Quick
            test_oversized_message;
        ] );
    ]
