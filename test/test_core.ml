(* Integration tests for SkyBridge proper: Rootkernel boot, registration,
   direct_server_call, all security defences, and the extensions. *)

open Sky_sim
open Sky_ukernel
open Sky_kernels
open Sky_core

(* [Subkernel.call] with how it was served: a degraded (slowpath) reply
   is the one that bumps [Subkernel.degraded_calls]. *)
let call_via sb ~core ~client ~server_id ?(timeout = -1) msg =
  let degraded0 = Subkernel.degraded_calls sb in
  match Subkernel.call sb ~core ~client ~server_id ~timeout msg with
  | reply ->
    Ok (reply, if Subkernel.degraded_calls sb > degraded0 then `Slowpath else `Direct)
  | exception Subkernel.Failed e -> Error e

let make ?backend ?(vpid = true) ?max_eptp ?max_bindings ?(cores = 4) () =
  let machine = Machine.create ~cores ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Subkernel.init ?backend ~vpid ?max_eptp ?max_bindings k in
  (k, sb)

let user_code = Sky_isa.Encode.encode_all [ Sky_isa.Insn.Nop; Sky_isa.Insn.Ret ]

let spawn_with_code k name =
  let p = Kernel.spawn k ~name in
  ignore (Kernel.map_code k p user_code);
  p

let echo ~core:_ msg = msg

(* Standard topology: client + echo server, registered and bound. *)
let setup ?backend ?vpid ?max_eptp () =
  let k, sb = make ?backend ?vpid ?max_eptp () in
  let client = spawn_with_code k "client" in
  let server = spawn_with_code k "server" in
  let sid = Subkernel.register_server sb server echo in
  Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch k ~core:0 client;
  (k, sb, client, server, sid)

(* ------------------------------------------------------------------ *)
(* Rootkernel                                                          *)
(* ------------------------------------------------------------------ *)

let test_boot_reserves_memory () =
  let k, sb = make () in
  let root = Subkernel.rootkernel sb in
  Alcotest.(check bool) "reserved some memory" true
    (root.Rootkernel.reserved_bytes > 0);
  (* The reserved frames cannot be allocated by the Subkernel. *)
  let alloc = Kernel.alloc k in
  Alcotest.(check bool) "frames unavailable" true
    (Sky_mem.Frame_alloc.available alloc
    < Sky_mem.Phys_mem.frames (Kernel.mem k))

let test_boot_virtualizes_all_cores () =
  let k, _sb = make () in
  for core = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "core %d non-root" core)
      true
      (Sky_mmu.Vcpu.virtualized (Kernel.vcpu k ~core))
  done

let test_cpuid_exits () =
  let _, sb = make () in
  let root = Subkernel.rootkernel sb in
  Alcotest.(check int) "no exits after boot" 0 (Rootkernel.total_vm_exits root);
  Rootkernel.handle_cpuid root ~core:0;
  Alcotest.(check int) "one CPUID exit" 1
    (Rootkernel.exits_of root Sky_mmu.Vmcs.Exit_cpuid)

let test_ept_violation_fatal () =
  let _, sb = make () in
  let root = Subkernel.rootkernel sb in
  (try
     ignore (Rootkernel.handle_ept_violation root ~core:0 ~gpa:0xdead000);
     Alcotest.fail "expected Fatal_ept_violation"
   with Rootkernel.Fatal_ept_violation gpa ->
     Alcotest.(check int) "gpa" 0xdead000 gpa);
  Alcotest.(check int) "recorded" 1
    (Rootkernel.exits_of root Sky_mmu.Vmcs.Exit_ept_violation)

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let test_register_maps_trampoline () =
  let k, sb, client, _, _ = setup () in
  (* The trampoline page is mapped and contains exactly two legal
     VMFUNCs. *)
  let code = Subkernel.trampoline_code sb in
  Alcotest.(check int) "two vmfuncs in trampoline" 2
    (Sky_rewriter.Scan.count_pattern code);
  match
    Sky_mmu.Page_table.walk ~mem:(Kernel.mem k) ~root_pa:(Proc.cr3 client)
      ~va:Layout.trampoline_va
  with
  | Ok r ->
    Alcotest.(check bool) "executable" false r.Sky_mmu.Page_table.flags.Sky_mmu.Pte.nx;
    Alcotest.(check bool) "not writable" false
      r.Sky_mmu.Page_table.flags.Sky_mmu.Pte.writable
  | Error _ -> Alcotest.fail "trampoline unmapped"

let test_register_rewrites_binary () =
  let k, sb = make () in
  let evil = Kernel.spawn k ~name:"evil" in
  (* A process shipping its own VMFUNC: registration must neuter it. *)
  ignore
    (Kernel.map_code k evil
       (Sky_isa.Encode.encode_all
          [ Sky_isa.Insn.Vmfunc; Sky_isa.Insn.Add_ri (Sky_isa.Reg.Rax, 0xD4010F); Sky_isa.Insn.Ret ]));
  Alcotest.(check bool) "dirty before" false (Subkernel.proc_is_clean sb evil);
  let sid = Subkernel.register_server sb evil echo in
  ignore sid;
  Alcotest.(check bool) "clean after registration" true
    (Subkernel.proc_is_clean sb evil)

let test_register_client_builds_ept () =
  let _, sb, _, _, _ = setup () in
  ignore sb;
  (* Binding exists; nothing to assert beyond no exception + the call
     below working. *)
  ()

(* ------------------------------------------------------------------ *)
(* direct_server_call                                                  *)
(* ------------------------------------------------------------------ *)

let test_direct_call_roundtrip_cost () =
  let k, sb, client, _, sid = setup () in
  let c = Kernel.cpu k ~core:0 in
  let msg = Bytes.create 8 in
  ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg);
  let before = Cpu.cycles c in
  let reply = Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg in
  let cycles = Cpu.cycles c - before in
  Alcotest.(check int) "echo" 8 (Bytes.length reply);
  (* §6.3: an IPC roundtrip in SkyBridge costs 396 cycles (2 x VMFUNC 134
     + 2 x 64 other). Ours adds the calling-key table lookup reads, so
     allow a small warm-cache margin. *)
  Alcotest.(check bool)
    (Printf.sprintf "roundtrip %d within [396, 450]" cycles)
    true
    (cycles >= 396 && cycles <= 450)

let test_direct_call_no_kernel_no_exit () =
  let k, sb, client, _, sid = setup () in
  let root = Subkernel.rootkernel sb in
  ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid (Bytes.create 8));
  let exits = Rootkernel.total_vm_exits root in
  let pmu = Cpu.pmu (Kernel.cpu k ~core:0) in
  let syscalls = Pmu.read pmu Pmu.Syscall_exec in
  ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid (Bytes.create 8));
  Alcotest.(check int) "no VM exits during calls" exits (Rootkernel.total_vm_exits root);
  Alcotest.(check int) "no syscalls during calls" syscalls (Pmu.read pmu Pmu.Syscall_exec)

let test_direct_call_switches_address_space () =
  let k, sb, client, server, sid = setup () in
  (* During the handler, the live identity must be the server's; after
     return, the client's (§4.2 process misidentification). *)
  let seen = ref (-1) in
  let probing_sid =
    let prober = spawn_with_code k "prober" in
    ignore prober;
    sid
  in
  ignore probing_sid;
  let sid2 =
    Subkernel.register_server sb server (fun ~core _ ->
        seen := Subkernel.current_identity sb ~core;
        Bytes.empty)
  in
  Subkernel.register_client_to_server sb client ~server_id:sid2;
  Kernel.context_switch k ~core:0 client;
  ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid2 Bytes.empty);
  Alcotest.(check int) "identity = server during handler" server.Proc.pid !seen;
  Alcotest.(check int) "identity = client after return" client.Proc.pid
    (Subkernel.current_identity sb ~core:0)

let test_direct_call_large_message () =
  let k, sb, client, _, _ = setup () in
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let sid =
    Subkernel.register_server sb (spawn_with_code k "blob")
      (fun ~core:_ msg -> msg)
  in
  Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch k ~core:0 client;
  let reply = Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid data in
  Alcotest.(check bool) "large payload via shared buffer" true (Bytes.equal data reply);
  Alcotest.(check bool) "copy cycles recorded" true
    ((Subkernel.stats sb).Breakdown.copy > 0)

let test_direct_call_unregistered_rejected () =
  let k, sb, client, _, sid = setup () in
  let other = spawn_with_code k "other" in
  (* [other] never registered to the server. *)
  (try
     ignore (Subkernel.direct_server_call sb ~core:0 ~client:other ~server_id:sid Bytes.empty);
     Alcotest.fail "expected Not_registered"
   with Subkernel.Not_registered _ -> ());
  ignore client

let test_fake_key_rejected () =
  let _, sb, client, _, sid = setup () in
  (try
     ignore
       (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid
          ~attack:`Fake_server_key Bytes.empty);
     Alcotest.fail "expected Bad_server_key"
   with Subkernel.Bad_server_key { server_id; _ } ->
     Alcotest.(check int) "server id" sid server_id);
  Alcotest.(check bool) "kernel notified" true
    (List.length (Subkernel.security_events sb) > 0)

let test_corrupt_return_key_rejected () =
  let _, sb, client, _, sid = setup () in
  try
    ignore
      (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid
         ~attack:`Corrupt_return_key Bytes.empty);
    Alcotest.fail "expected Bad_client_return"
  with Subkernel.Bad_client_return _ -> ()

let test_timeout_dos_defence () =
  let k, sb, client, _, _ = setup () in
  let hang_sid =
    Subkernel.register_server sb (spawn_with_code k "hog") (fun ~core msg ->
        (* A server that burns far more than the budget. *)
        Kernel.user_compute k ~core ~cycles:1_000_000;
        msg)
  in
  Subkernel.register_client_to_server sb client ~server_id:hang_sid;
  Kernel.context_switch k ~core:0 client;
  try
    ignore
      (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:hang_sid
         ~timeout:10_000 Bytes.empty);
    Alcotest.fail "expected Timeout"
  with Subkernel.Failed (Subkernel.Timeout { elapsed; _ }) ->
    Alcotest.(check bool) "elapsed measured" true (elapsed > 10_000)

let test_nested_direct_calls () =
  (* client -> fs -> disk entirely through SkyBridge (dependency EPTs in
     the client's EPTP list). *)
  let k, sb = make () in
  let client = spawn_with_code k "client" in
  let fs = spawn_with_code k "fs" in
  let disk = spawn_with_code k "disk" in
  let disk_sid =
    Subkernel.register_server sb disk (fun ~core:_ _ -> Bytes.of_string "sector")
  in
  (* The FS registers as a client of the disk before serving anyone. *)
  Subkernel.register_client_to_server sb fs ~server_id:disk_sid;
  let fs_sid =
    Subkernel.register_server sb fs ~deps:[ disk_sid ] (fun ~core msg ->
        let b =
          Subkernel.direct_server_call sb ~core ~client:fs ~server_id:disk_sid msg
        in
        Bytes.of_string ("fs:" ^ Bytes.to_string b))
  in
  Subkernel.register_client_to_server sb client ~server_id:fs_sid;
  Kernel.context_switch k ~core:0 client;
  let reply =
    Subkernel.direct_server_call sb ~core:0 ~client ~server_id:fs_sid
      (Bytes.of_string "rd")
  in
  Alcotest.(check string) "nested" "fs:sector" (Bytes.to_string reply);
  (* And the client is back in its own space. *)
  Alcotest.(check int) "identity restored" client.Proc.pid
    (Subkernel.current_identity sb ~core:0)

let test_faked_vmfunc_defence_end_to_end () =
  (* The §7 attack: a malicious process carries its own VMFUNC to jump
     into a victim's space. After registration the instruction is gone,
     so executing the process's code performs no EPTP switch. *)
  let k, sb = make () in
  let attacker = Kernel.spawn k ~name:"attacker" in
  let attack_code =
    Sky_isa.Encode.encode_all
      [ Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rax, 0L);
        Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rcx, 1L);
        Sky_isa.Insn.Vmfunc ]
  in
  ignore (Kernel.map_code k attacker attack_code);
  ignore (Subkernel.register_server sb attacker echo);
  (* Execute the (now rewritten) code in the interpreter: no vmfunc
     event may remain. *)
  match Kernel.proc_code_bytes k attacker with
  | [ (_, code) ] ->
    Alcotest.(check int) "pattern erased" 0 (Sky_rewriter.Scan.count_pattern code);
    let st = Sky_isa.Interp.create () in
    Sky_isa.Interp.run st code;
    Alcotest.(check int) "no vmfunc executed" 0 (Sky_isa.Interp.vmfunc_count st)
  | _ -> Alcotest.fail "one region expected"

(* ------------------------------------------------------------------ *)
(* Trampoline page                                                     *)
(* ------------------------------------------------------------------ *)

let test_trampoline_structure () =
  let code = Sky_core.Trampoline.code () in
  let ds = Sky_isa.Decode.decode_all code in
  let insns = List.filter_map (fun d -> d.Sky_isa.Decode.insn) ds in
  (* Every byte decodes (real machine code, no junk). *)
  Alcotest.(check int) "fully decodable" (List.length ds) (List.length insns);
  (* Exactly two VMFUNCs: the call crossing and the return crossing. *)
  let vmfuncs = List.filter (fun i -> i = Sky_isa.Insn.Vmfunc) insns in
  Alcotest.(check int) "two vmfuncs" 2 (List.length vmfuncs);
  (* Saves callee-saved registers up front and returns at the end. *)
  (match insns with
  | Sky_isa.Insn.Push _ :: _ -> ()
  | _ -> Alcotest.fail "must start by saving registers");
  (match List.rev insns with
  | Sky_isa.Insn.Ret :: _ -> ()
  | _ -> Alcotest.fail "must end with ret");
  (* The rewriter's allowed ranges cover exactly the two VMFUNCs. *)
  Alcotest.(check int) "two allowed ranges" 2
    (List.length (Sky_core.Trampoline.vmfunc_ranges code))

(* The three gates' bytes, pinned: prologue, body and epilogue are
   assembled from one frame, and the encoding must not move. *)
let test_trampoline_golden_bytes () =
  let hex b =
    String.concat ""
      (List.init (Bytes.length b) (fun i ->
           Printf.sprintf "%02x" (Char.code (Bytes.get b i))))
  in
  List.iter
    (fun (name, code, expected) -> Alcotest.(check string) name expected (hex code))
    [
      ( "vmfunc",
        Trampoline.code (),
        "535541544155415641574889e548c7c0000000004889f90f01d44889f44c8b1ae800000000"
        ^ "48c7c00000000048c7c1000000000f01d44889ec415f415e415d415c5d5bc3" );
      ( "mpk",
        Trampoline.mpk_code (),
        "535541544155415641574889e54c89cb4831c94831d24889f80f01ef4889f44d8b18e80000"
        ^ "00004831c94831d24889d80f01ef4889ec415f415e415d415c5d5bc3" );
      ( "syscall",
        Trampoline.syscall_code (),
        "535541544155415641574889e54889f80f054889ec415f415e415d415c5d5bc3" );
    ]

let test_trampoline_shared_frame () =
  (* One physical trampoline frame serves every registered process. *)
  let k, sb, client, server, _ = setup () in
  ignore sb;
  let frame_of p =
    match
      Sky_mmu.Page_table.walk ~mem:(Kernel.mem k) ~root_pa:(Proc.cr3 p)
        ~va:Layout.trampoline_va
    with
    | Ok r -> r.Sky_mmu.Page_table.pa
    | Error _ -> Alcotest.fail "trampoline unmapped"
  in
  Alcotest.(check int) "same frame" (frame_of client) (frame_of server)

(* ------------------------------------------------------------------ *)
(* Client isolation                                                    *)
(* ------------------------------------------------------------------ *)

let test_two_clients_isolated () =
  (* Two clients of one server get distinct calling keys, distinct EPTs
     and distinct shared buffers; each sees only its own traffic. *)
  let k, sb = make () in
  let server = spawn_with_code k "server" in
  let seen = ref [] in
  let sid =
    Subkernel.register_server sb server (fun ~core:_ msg ->
        seen := Bytes.to_string msg :: !seen;
        msg)
  in
  let a = spawn_with_code k "a" and b = spawn_with_code k "b" in
  Subkernel.register_client_to_server sb a ~server_id:sid;
  Subkernel.register_client_to_server sb b ~server_id:sid;
  Kernel.context_switch k ~core:0 a;
  ignore (Subkernel.direct_server_call sb ~core:0 ~client:a ~server_id:sid (Bytes.of_string "from-a"));
  Kernel.context_switch k ~core:0 b;
  ignore (Subkernel.direct_server_call sb ~core:0 ~client:b ~server_id:sid (Bytes.of_string "from-b"));
  Alcotest.(check (list string)) "server saw both" [ "from-b"; "from-a" ] !seen;
  (* b never had a's buffer VA mapped: a's first buffer VA must not
     resolve in b's page table. *)
  let buffers_disjoint =
    (* Find a VA mapped in a's space in the SkyBridge buffer window that
       is unmapped in b's. *)
    let rec probe va count =
      if count = 0 then false
      else
        let in_a =
          Sky_mmu.Page_table.walk ~mem:(Kernel.mem k) ~root_pa:(Proc.cr3 a) ~va
        in
        let in_b =
          Sky_mmu.Page_table.walk ~mem:(Kernel.mem k) ~root_pa:(Proc.cr3 b) ~va
        in
        match (in_a, in_b) with
        | Ok _, Error _ -> true
        | _ -> probe (va + 4096) (count - 1)
    in
    probe Layout.skybridge_buffer_va 64
  in
  Alcotest.(check bool) "buffer mappings disjoint" true buffers_disjoint

(* The flagship end-to-end test: the trampoline page the Subkernel maps
   is real machine code — fetch it through the simulated MMU, execute it
   instruction by instruction, and the embedded VMFUNCs really move the
   core into the server's address space and back. *)
let test_trampoline_executes_for_real () =
  let k, sb, client, _server, sid = setup () in
  let vcpu = Kernel.vcpu k ~core:0 in
  let vmcs = Sky_mmu.Vcpu.vmcs_exn vcpu in
  (* Initial registers per the trampoline's calling convention:
     RDI = EPTP index of the server binding (slot 1),
     RSI = a server-side stack top, RDX = a server-only page (the
     calling-key table) whose first word the trampoline loads. *)
  let regs = Array.make 16 0L in
  let proc_stack = Kernel.map_anon k client 4096 in
  let rsp = proc_stack + 4096 - 8 in
  Sky_mmu.Translate.write_u64 vcpu (Kernel.mem k) ~va:rsp
    (Int64.of_int Exec.return_sentinel);
  regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rsp) <- Int64.of_int rsp;
  regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rdi) <- 1L;
  regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rsi) <-
    Int64.of_int (Subkernel.server_stack_va sb ~server_id:sid ~conn:0);
  regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rdx) <-
    Int64.of_int Subkernel.key_table_va;
  let stop, out = Exec.run k ~core:0 ~entry:Subkernel.trampoline_va ~regs () in
  Alcotest.(check bool) "returned cleanly" true (stop = `Returned);
  (* Evidence the VMFUNC really switched address spaces: R11 was loaded
     from a page mapped ONLY in the server — the key table, whose first
     word is the client's pid. *)
  Alcotest.(check int64) "read server-only memory mid-trampoline"
    (Int64.of_int client.Proc.pid)
    out.(Sky_isa.Reg.encoding Sky_isa.Reg.R11);
  (* ...and the second VMFUNC switched back to slot 0. *)
  Alcotest.(check int) "EPTP back to slot 0" 0 (Sky_mmu.Vmcs.current_index vmcs);
  (* The key table is NOT readable from plain client context. *)
  try
    ignore
      (Sky_mmu.Translate.read_u64 vcpu (Kernel.mem k) ~va:Subkernel.key_table_va);
    Alcotest.fail "key table must not be client-mapped"
  with Sky_mmu.Translate.Page_fault _ -> ()

let test_exec_faked_vmfunc_faults () =
  (* A process executing its own VMFUNC with an unbound index takes the
     hardware VM exit (Invalid_vmfunc) — the §4.4 attack as executed
     code, not just as bytes. *)
  let k, sb = make () in
  let evil = Kernel.spawn k ~name:"evil" in
  let attack =
    Sky_isa.Encode.encode_all
      [ Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rax, 0L);
        Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rcx, 3L);
        Sky_isa.Insn.Vmfunc; Sky_isa.Insn.Ret ]
  in
  ignore (Kernel.map_code k evil attack);
  (* NOT registered into SkyBridge: its VMFUNC survives in the binary,
     but the EPTP list has no slot 3 -> VM exit. *)
  ignore sb;
  Kernel.context_switch k ~core:0 evil;
  try
    ignore (Exec.run k ~core:0 ~entry:Layout.code_va ());
    Alcotest.fail "expected Invalid_vmfunc"
  with Sky_mmu.Vmfunc.Invalid_vmfunc _ -> ()

let test_exec_rewritten_attacker_is_inert () =
  (* After registration the same attack code executes to completion
     without any EPTP switch: the rewriter replaced the VMFUNC. *)
  let k, sb = make () in
  let evil = Kernel.spawn k ~name:"evil" in
  ignore
    (Kernel.map_code k evil
       (Sky_isa.Encode.encode_all
          [ Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rax, 0L);
            Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rcx, 1L);
            Sky_isa.Insn.Vmfunc;
            Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rbx, 77L);
            Sky_isa.Insn.Ret ]));
  ignore (Subkernel.register_server sb evil echo);
  Kernel.context_switch k ~core:0 evil;
  let vmcs = Sky_mmu.Vcpu.vmcs_exn (Kernel.vcpu k ~core:0) in
  let stop, out = Exec.run k ~core:0 ~entry:Layout.code_va () in
  Alcotest.(check bool) "ran to completion" true (stop = `Returned);
  Alcotest.(check int64) "code after the erased vmfunc still ran" 77L
    out.(Sky_isa.Reg.encoding Sky_isa.Reg.Rbx);
  Alcotest.(check int) "no EPTP switch happened" 0 (Sky_mmu.Vmcs.current_index vmcs)

let test_exec_nx_enforced () =
  (* W^X for real: executing from a data page faults at fetch. *)
  let k, sb = make () in
  ignore sb;
  let p = Kernel.spawn k ~name:"p" in
  let data_va = Kernel.map_anon k p 4096 in
  Kernel.context_switch k ~core:0 p;
  (* Write valid code bytes into the RW (hence NX-fetchable?) page: our
     urw mapping is executable unless nx; use the loader's Data kind to
     get a proper NX page. *)
  Sky_mmu.Page_table.protect p.Proc.page_table ~mem:(Kernel.mem k) ~va:data_va
    ~flags:{ Sky_mmu.Pte.urw with Sky_mmu.Pte.nx = true };
  try
    ignore (Exec.run k ~core:0 ~entry:data_va ());
    Alcotest.fail "expected NX fetch fault"
  with Sky_mmu.Translate.Page_fault _ -> ()

(* An instruction straddling a page boundary is fetched from both pages:
   a 10-byte MOV starts 4 bytes before the end of the RX code page and a
   RET follows it. [second] takes execute permission or the mapping away
   from the second page; the fetch of the MOV must then fault on that
   page, before the MOV runs. *)
let straddling_fetch_fault second =
  let open Sky_isa in
  let k, _sb = make () in
  let p = Kernel.spawn k ~name:"straddle" in
  let tail = Encode.encode_all [ Insn.Mov_ri (Reg.Rax, 0x1122334455667788L); Insn.Ret ] in
  let code = Bytes.make (4096 - 4 + Bytes.length tail) '\x90' in
  Bytes.blit tail 0 code (4096 - 4) (Bytes.length tail);
  ignore (Kernel.map_code k p code);
  second k p ~va:(Layout.code_va + 4096);
  Kernel.context_switch k ~core:0 p;
  match Exec.run k ~core:0 ~entry:(Layout.code_va + 4096 - 4) () with
  | _ -> Alcotest.fail "expected a fetch fault"
  | exception Sky_mmu.Translate.Page_fault f -> f

let test_exec_fetch_nx_second_page () =
  let fault =
    straddling_fetch_fault (fun k p ~va ->
        Sky_mmu.Page_table.protect p.Proc.page_table ~mem:(Kernel.mem k) ~va
          ~flags:{ Sky_mmu.Pte.urw with Sky_mmu.Pte.nx = true })
  in
  Alcotest.(check bool) "protection fault on the NX page" true
    (fault = Sky_mmu.Page_table.Protection (Layout.code_va + 4096))

let test_exec_fetch_unmapped_second_page () =
  let fault =
    straddling_fetch_fault (fun k p ~va ->
        Sky_mmu.Page_table.unmap p.Proc.page_table ~mem:(Kernel.mem k) ~va)
  in
  Alcotest.(check bool) "not-present fault on the unmapped page" true
    (fault = Sky_mmu.Page_table.Not_present (Layout.code_va + 4096))

(* Running the other two gates. [gate_regs] gives a client on core 0 the
   registers a caller would: recognisable callee-saved values, RSP at the
   sentinel, RSI at the top of a scratch server stack and R8 at a
   function list whose first word is 0x5eed, all of it client-mapped. *)
let gate_regs k client =
  let open Sky_isa in
  let vcpu = Kernel.vcpu k ~core:0 and mem = Kernel.mem k in
  let page () = Kernel.map_anon k client 4096 in
  let rsp = page () + 4096 - 8 and fn_list = page () in
  Sky_mmu.Translate.write_u64 vcpu mem ~va:rsp (Int64.of_int Exec.return_sentinel);
  Sky_mmu.Translate.write_u64 vcpu mem ~va:fn_list 0x5eedL;
  let regs = Array.init 16 (fun i -> Int64.of_int (0x1000 * (i + 1))) in
  regs.(Reg.encoding Reg.Rsp) <- Int64.of_int rsp;
  regs.(Reg.encoding Reg.Rsi) <- Int64.of_int (page () + 4096);
  regs.(Reg.encoding Reg.R8) <- Int64.of_int fn_list;
  regs

(* An MPK machine and the client's registers for its gate: RDI = the
   server's view, R9 = the client's. *)
let mpk_gate () =
  let open Sky_isa in
  let k, sb, client, server, _ = setup ~backend:Backend.Mpk () in
  let view p = snd (Option.get (Subkernel.mpk_view sb p)) in
  let regs = gate_regs k client in
  regs.(Reg.encoding Reg.Rdi) <- Int64.of_int (view server);
  regs.(Reg.encoding Reg.R9) <- Int64.of_int (view client);
  (k, client, regs, view client)

let test_mpk_gate_executes () =
  let open Sky_isa in
  let k, _, regs, client_view = mpk_gate () in
  let pmu = Cpu.pmu (Kernel.cpu k ~core:0) in
  let wrpkrus = Pmu.read pmu Pmu.Wrpkru_exec in
  let stop, out = Exec.run k ~core:0 ~entry:Subkernel.trampoline_va ~regs () in
  let reg r = out.(Reg.encoding r) in
  Alcotest.(check bool) "returned to the sentinel" true (stop = `Returned);
  Alcotest.(check int) "PKRU back at the client view" client_view
    (Kernel.vcpu k ~core:0).Sky_mmu.Vcpu.pkru;
  Alcotest.(check int) "two WRPKRUs executed" 2
    (Pmu.read pmu Pmu.Wrpkru_exec - wrpkrus);
  Alcotest.(check int64) "function list read" 0x5eedL (reg Reg.R11);
  List.iter
    (fun r ->
      Alcotest.(check int64) (Reg.name r) regs.(Reg.encoding r) (reg r))
    [ Reg.Rbx; Reg.Rbp; Reg.R12; Reg.R13; Reg.R14; Reg.R15 ];
  (* The final RET popped the caller's return address, the sentinel. *)
  Alcotest.(check int64) "rsp"
    (Int64.add regs.(Reg.encoding Reg.Rsp) 8L)
    (reg Reg.Rsp)

let test_mpk_gate_without_xor_faults () =
  (* ERIM's operand discipline, executed: drop the XOR that zeroes RCX
     before the entry WRPKRU (NOPs keep the layout) and the WRPKRU
     faults on the caller's RCX. *)
  let open Sky_isa in
  let k, client, regs, _ = mpk_gate () in
  let dropped = ref false in
  let sloppy =
    List.concat_map
      (fun i ->
        if i = Insn.Xor_rr (Reg.Rcx, Reg.Rcx) && not !dropped then begin
          dropped := true;
          List.init (Encode.length i) (fun _ -> Insn.Nop)
        end
        else [ i ])
      Trampoline.mpk_insns
  in
  Kernel.write_code k client ~va:Subkernel.trampoline_va (Encode.encode_all sloppy);
  match Exec.run k ~core:0 ~entry:Subkernel.trampoline_va ~regs () with
  | _ -> Alcotest.fail "expected the WRPKRU to fault"
  | exception Exec.Exec_fault msg ->
    Alcotest.(check string) "faulted at the WRPKRU" "wrpkru with ECX/EDX nonzero" msg

let test_syscall_gate_stops_at_syscall () =
  let open Sky_isa in
  let k, _sb, client, _, sid = setup ~backend:Backend.Syscall () in
  let regs = gate_regs k client in
  regs.(Reg.encoding Reg.Rdi) <- Int64.of_int sid;
  let stop, out = Exec.run k ~core:0 ~entry:Subkernel.trampoline_va ~regs () in
  Alcotest.(check bool) "stopped at the SYSCALL" true (stop = `Syscall);
  Alcotest.(check int64) "rax = server id" (Int64.of_int sid)
    out.(Reg.encoding Reg.Rax)

(* Differential check of the two machines that run the one instruction
   semantics: the same encoded program through the flat-memory reference
   interpreter (Sky_isa.Interp) and through the MMU-backed executor
   (Exec), from the same registers and the same data page, must leave
   identical registers and data-page bytes. Each program ends in a RET
   to the caller's return address: Exec's sentinel, or for Interp the
   code length, its clean exit. One process serves every run. *)
let diff_data_va = 0x50_0000
let diff_seed = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff))

let diff_rig =
  lazy
    (let k, _sb = make () in
     let p = Kernel.spawn k ~name:"diff" in
     ignore (Kernel.map_code k p (Bytes.make 4096 '\x90'));
     ignore (Kernel.map_anon k p ~va:diff_data_va 4096);
     let rsp = Kernel.map_anon k p 4096 + 4096 - 8 in
     Kernel.context_switch k ~core:0 p;
     (k, p, rsp))

(* Each machine's final registers and data page after running [prog]
   from [regs], whose RSP and RBP are replaced by the address of the
   return address on the rig's stack. *)
let run_both regs prog =
  let open Sky_isa in
  let k, p, rsp = Lazy.force diff_rig in
  let vcpu = Kernel.vcpu k ~core:0 and mem = Kernel.mem k in
  let code = Encode.encode_all prog in
  let regs = Array.copy regs in
  regs.(Reg.encoding Reg.Rsp) <- Int64.of_int rsp;
  regs.(Reg.encoding Reg.Rbp) <- Int64.of_int rsp;
  Kernel.write_code k p ~va:Layout.code_va code;
  Sky_mmu.Translate.write_bytes vcpu mem ~va:diff_data_va diff_seed;
  Sky_mmu.Translate.write_u64 vcpu mem ~va:rsp (Int64.of_int Exec.return_sentinel);
  let stop, exec_regs = Exec.run k ~core:0 ~entry:Layout.code_va ~regs () in
  if stop <> `Returned then Alcotest.fail "Exec did not return";
  let exec_page = Sky_mmu.Translate.read_bytes vcpu mem ~va:diff_data_va ~len:4096 in
  let st = Interp.create () in
  Array.blit regs 0 st.Interp.regs 0 16;
  Interp.write64 st rsp (Int64.of_int (Bytes.length code));
  Bytes.iteri (fun i c -> Interp.write_byte st (diff_data_va + i) (Char.code c)) diff_seed;
  Interp.run st code;
  let interp_page =
    Bytes.init 4096 (fun i -> Char.chr (Interp.read_byte st (diff_data_va + i)))
  in
  ((exec_regs, exec_page), (st.Interp.regs, interp_page))

(* Hand-written control flow, with the value RBX must end with. *)
let interp_agrees_with_exec ~rbx name prog =
  let (exec_regs, exec_page), (interp_regs, interp_page) =
    run_both (Array.make 16 0L) prog
  in
  Alcotest.(check (array int64)) (name ^ ": registers") exec_regs interp_regs;
  Alcotest.(check bool) (name ^ ": data page") true (Bytes.equal exec_page interp_page);
  Alcotest.(check int64) (name ^ ": rbx") rbx
    exec_regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rbx)

let test_interp_agrees_with_exec () =
  let open Sky_isa in
  let len = List.fold_left (fun a i -> a + Encode.length i) 0 in
  (* [setup]; jcc over [mov rbx, 1]; ret — rbx records whether it jumped. *)
  let branch ~taken name setup cond =
    let skipped = [ Insn.Mov_ri (Reg.Rbx, 1L) ] in
    interp_agrees_with_exec ~rbx:(if taken then 0L else 1L) name
      (setup @ [ Insn.Jcc (cond, len skipped) ] @ skipped @ [ Insn.Ret ])
  in
  (* XOR sets the flags from its result, as x86 does: a zero result
     after a non-equal compare must take JE, a nonzero one after an
     equal compare must not. *)
  branch ~taken:true "xor zero -> je"
    [ Insn.Mov_ri (Reg.Rax, 5L); Insn.Cmp_ri (Reg.Rax, 0);
      Insn.Xor_rr (Reg.Rax, Reg.Rax) ]
    Insn.E;
  branch ~taken:false "xor nonzero -> je"
    [ Insn.Mov_ri (Reg.Rcx, 0L); Insn.Cmp_ri (Reg.Rcx, 0);
      Insn.Mov_ri (Reg.Rdx, 6L); Insn.Xor_rr (Reg.Rdx, Reg.Rcx) ]
    Insn.E;
  List.iter
    (fun (cond, a, b, taken) ->
      branch ~taken
        (Printf.sprintf "cmp %Ld,%d -> j%s" a b (Insn.cond_name cond))
        [ Insn.Mov_ri (Reg.Rax, a); Insn.Cmp_ri (Reg.Rax, b) ]
        cond)
    [ (Insn.E, 3L, 3, true); (Insn.Ne, 3L, 3, false); (Insn.L, -1L, 1, true);
      (Insn.Ge, 2L, 1, true); (Insn.Le, 4L, 4, true); (Insn.G, 7L, 3, true);
      (Insn.B, -1L, 1, false); (Insn.Ae, 0L, 0, true) ];
  interp_agrees_with_exec ~rbx:7L "push/pop"
    [ Insn.Mov_ri (Reg.Rax, 7L); Insn.Push Reg.Rax; Insn.Mov_ri (Reg.Rax, 0L);
      Insn.Pop Reg.Rbx; Insn.Ret ];
  let after_call = [ Insn.Mov_ri (Reg.Rcx, 1L); Insn.Ret ] in
  interp_agrees_with_exec ~rbx:5L "call/ret"
    ((Insn.Call_rel (len after_call) :: after_call)
    @ [ Insn.Mov_ri (Reg.Rbx, 5L); Insn.Ret ])

(* Random straight-line programs from the ISA generator, from random
   registers. Memory operands are moved into the data page (LEA keeps
   its address arithmetic), and SYSCALL and VMFUNC, whose effects the
   two machines implement differently, become NOPs. The generator never
   writes RBP, so [mov rsp, rbp; ret] returns past whatever was pushed. *)
let prop_interp_agrees_with_exec =
  let open Sky_isa in
  let confine (m : Insn.mem) =
    Insn.mem ~disp:(diff_data_va + (m.Insn.disp land 0xff8)) ()
  in
  let operand = function Insn.M m -> Insn.M (confine m) | r -> r in
  let confine_insn = function
    | Insn.Syscall | Insn.Vmfunc -> Insn.Nop
    | Insn.Mov_load (d, m) -> Insn.Mov_load (d, confine m)
    | Insn.Mov_store (m, s) -> Insn.Mov_store (confine m, s)
    | Insn.Add_rm (d, m) -> Insn.Add_rm (d, confine m)
    | Insn.Imul_rri (d, s, i) -> Insn.Imul_rri (d, operand s, i)
    | Insn.Imul_rm (d, s) -> Insn.Imul_rm (d, operand s)
    | i -> i
  in
  let gen =
    QCheck.Gen.(
      pair
        (map
           (fun prog ->
             List.map confine_insn prog @ [ Insn.Mov_rr (Reg.Rsp, Reg.Rbp); Insn.Ret ])
           Isa_gen.gen_straightline)
        (array_repeat 16 ui64))
  in
  let print (prog, _) = String.concat "; " (List.map Insn.to_string prog) in
  QCheck.Test.make ~name:"Interp agrees with Exec on straight-line code"
    ~count:200 (QCheck.make ~print gen) (fun (prog, regs) ->
      let exec_state, interp_state = run_both regs prog in
      exec_state = interp_state)

let test_meltdown_isolation () =
  (* §7: "SkyBridge can also defeat such attack since it still puts
     different processes into different page tables." A VA mapped in A's
     space must not resolve in B's — with or without SkyBridge. *)
  let k, sb = make () in
  let a = spawn_with_code k "a" and b = spawn_with_code k "b" in
  let secret_va = Kernel.map_anon k a 4096 in
  ignore (Subkernel.register_server sb a echo);
  ignore (Subkernel.register_server sb b echo);
  Kernel.context_switch k ~core:0 b;
  Sky_mmu.Vcpu.set_mode (Kernel.vcpu k ~core:0) Sky_mmu.Vcpu.User;
  (try
     ignore
       (Sky_mmu.Translate.read_u64 (Kernel.vcpu k ~core:0) (Kernel.mem k)
          ~va:secret_va);
     Alcotest.fail "B must not read A's heap"
   with Sky_mmu.Translate.Page_fault _ -> ());
  (* And A still can. *)
  Kernel.context_switch k ~core:0 a;
  ignore
    (Sky_mmu.Translate.read_u64 (Kernel.vcpu k ~core:0) (Kernel.mem k)
       ~va:secret_va)

(* ------------------------------------------------------------------ *)
(* Context switching and EPTP lists                                    *)
(* ------------------------------------------------------------------ *)

let test_context_switch_installs_list () =
  let k, sb, client, _, sid = setup () in
  ignore sid;
  let root = Subkernel.rootkernel sb in
  let before = Rootkernel.exits_of root Sky_mmu.Vmcs.Exit_vmcall in
  let other = spawn_with_code k "bystander" in
  Kernel.context_switch k ~core:0 other;
  Kernel.context_switch k ~core:0 client;
  (* Switching to the registered client must VMCALL to install its EPTP
     list. *)
  Alcotest.(check bool) "vmcalls happened" true
    (Rootkernel.exits_of root Sky_mmu.Vmcs.Exit_vmcall > before)

let test_unregistered_switches_no_exits () =
  let k, sb = make () in
  let a = Kernel.spawn k ~name:"a" and b = Kernel.spawn k ~name:"b" in
  let root = Subkernel.rootkernel sb in
  Kernel.context_switch k ~core:0 a;
  Kernel.context_switch k ~core:0 b;
  Kernel.context_switch k ~core:0 a;
  Alcotest.(check int) "Table 5: zero VM exits without SkyBridge users" 0
    (Rootkernel.total_vm_exits root)

(* ------------------------------------------------------------------ *)
(* EPTP-list eviction (§10 extension)                                  *)
(* ------------------------------------------------------------------ *)

let test_eptp_eviction () =
  (* max_eptp = 4: slot 0 + 3 bindings fit; the 4th server forces LRU
     eviction. *)
  let k, sb = make ~max_eptp:4 () in
  let client = spawn_with_code k "client" in
  let sids =
    List.init 5 (fun i ->
        let s = spawn_with_code k (Printf.sprintf "srv%d" i) in
        let sid = Subkernel.register_server sb s echo in
        Subkernel.register_client_to_server sb client ~server_id:sid;
        sid)
  in
  Kernel.context_switch k ~core:0 client;
  List.iter
    (fun sid ->
      let r = Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid (Bytes.create 4) in
      Alcotest.(check int) "call works" 4 (Bytes.length r))
    sids;
  Alcotest.(check bool) "evictions happened" true (Subkernel.evictions sb > 0);
  (* Calling all servers round-robin keeps working under thrash. *)
  for _ = 1 to 3 do
    List.iter
      (fun sid ->
        ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid (Bytes.create 4)))
      sids
  done

let test_eptp_slot_reuse () =
  (* max_eptp = 4: slot 0 (own EPT) + 3 binding slots. Binding 6 servers
     must recycle slots rather than grow the list, with every eviction
     charged to this process. *)
  let k, sb = make ~max_eptp:4 () in
  let client = spawn_with_code k "client" in
  let sids =
    List.init 6 (fun i ->
        let s = spawn_with_code k (Printf.sprintf "srv%d" i) in
        let sid = Subkernel.register_server sb s echo in
        Subkernel.register_client_to_server sb client ~server_id:sid;
        sid)
  in
  Kernel.context_switch k ~core:0 client;
  (* Touch every binding once: the first 3 are already installed; each
     of the last 3 must steal a slot (eviction is lazy, at call time). *)
  List.iter
    (fun sid ->
      ignore
        (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid
           (Bytes.create 4)))
    sids;
  Alcotest.(check bool) "slots bounded by max_eptp" true
    (List.length (Subkernel.installed_servers sb client) <= 3);
  Alcotest.(check int) "evictions = calls beyond the slot budget" 3
    (Subkernel.process_evictions sb client);
  Alcotest.(check int) "all evictions charged to this process"
    (Subkernel.evictions sb)
    (Subkernel.process_evictions sb client);
  (* The survivors are the 3 most recently called; the early ones were
     recycled out. *)
  List.iteri
    (fun i sid ->
      Alcotest.(check bool)
        (Printf.sprintf "srv%d slot state" i)
        (i >= 3)
        (List.mem sid (Subkernel.installed_servers sb client)))
    sids

let test_eptp_lru_never_evicts_recent () =
  (* 3 binding slots, servers a b c bound in that order; calling [a]
     refreshes it, so binding [d] must evict [b] (the LRU), never the
     just-touched [a]. *)
  let k, sb = make ~max_eptp:4 () in
  let client = spawn_with_code k "client" in
  let bind name =
    let s = spawn_with_code k name in
    let sid = Subkernel.register_server sb s echo in
    Subkernel.register_client_to_server sb client ~server_id:sid;
    sid
  in
  let a = bind "a" and b = bind "b" and c = bind "c" in
  Kernel.context_switch k ~core:0 client;
  ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:a (Bytes.create 4));
  let d = bind "d" in
  (* The 4th binding takes no slot until it is called; the call must
     evict the least-recently-used binding [b], not the just-touched
     [a]. *)
  ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:d (Bytes.create 4));
  let installed = Subkernel.installed_servers sb client in
  Alcotest.(check bool) "recently-called a survives" true (List.mem a installed);
  Alcotest.(check bool) "LRU b evicted" false (List.mem b installed);
  Alcotest.(check bool) "c survives" true (List.mem c installed);
  Alcotest.(check bool) "new d installed" true (List.mem d installed);
  Alcotest.(check int) "exactly one eviction" 1 (Subkernel.process_evictions sb client);
  (* The evicted binding still serves — degraded to the slowpath. *)
  match call_via sb ~core:0 ~client ~server_id:b (Bytes.create 4) with
  | Ok (r, _) -> Alcotest.(check int) "b still answers" 4 (Bytes.length r)
  | Error _ -> Alcotest.fail "evicted binding must degrade, not fail"

let test_max_bindings_global_budget () =
  (* Global budget of 4 live fast-path bindings across 6 single-binding
     clients: the least-recently-calling processes are retired to
     slowpath, nothing fails. *)
  let k, sb = make ~max_eptp:8 ~max_bindings:4 () in
  let server = spawn_with_code k "server" in
  let sid = Subkernel.register_server sb server ~connection_count:8 echo in
  let clients =
    List.init 6 (fun i ->
        let c = spawn_with_code k (Printf.sprintf "cl%d" i) in
        Subkernel.register_client_to_server sb c ~server_id:sid;
        Kernel.context_switch k ~core:0 c;
        ignore (Subkernel.direct_server_call sb ~core:0 ~client:c ~server_id:sid
                  (Bytes.create 4));
        c)
  in
  Alcotest.(check bool) "slot evictions happened" true
    (Subkernel.slot_evictions sb > 0);
  Alcotest.(check bool) "live bindings within budget" true
    (Subkernel.live_bindings sb <= 4);
  (* The first (least-recently-calling) client was retired: its call
     comes back correct via the slowpath. *)
  let c0 = List.hd clients in
  Kernel.context_switch k ~core:0 c0;
  (match call_via sb ~core:0 ~client:c0 ~server_id:sid (Bytes.create 4) with
  | Ok (r, `Slowpath) -> Alcotest.(check int) "slowpath echo" 4 (Bytes.length r)
  | Ok (_, `Direct) -> Alcotest.fail "retired tenant must be on the slowpath"
  | Error _ -> Alcotest.fail "retired tenant must degrade, not fail");
  (* The most recent client still calls direct. *)
  let c5 = List.nth clients 5 in
  Kernel.context_switch k ~core:0 c5;
  match call_via sb ~core:0 ~client:c5 ~server_id:sid (Bytes.create 4) with
  | Ok (_, `Direct) -> ()
  | Ok (_, `Slowpath) -> Alcotest.fail "recent tenant should still be fast"
  | Error _ -> Alcotest.fail "recent tenant must not fail"

(* ------------------------------------------------------------------ *)
(* W^X rescanning (§9 extension)                                       *)
(* ------------------------------------------------------------------ *)

let test_wx_rescan () =
  let k, sb = make () in
  let jit = Kernel.spawn k ~name:"jit" in
  ignore (Kernel.map_code k jit (Bytes.make 4096 '\x90'));
  ignore (Subkernel.register_server sb jit echo);
  Alcotest.(check bool) "clean initially" true (Subkernel.proc_is_clean sb jit);
  (* JIT phase: make writable, emit code containing a VMFUNC. *)
  Subkernel.make_code_writable sb jit;
  Kernel.write_code k jit ~va:Layout.code_va
    (Sky_isa.Encode.encode_all [ Sky_isa.Insn.Vmfunc; Sky_isa.Insn.Ret ]);
  Alcotest.(check bool) "dirty while writable" false (Subkernel.proc_is_clean sb jit);
  (* Remap executable: the Subkernel rescans and rewrites. *)
  Subkernel.restore_code_executable sb jit;
  Alcotest.(check bool) "clean after rescan" true (Subkernel.proc_is_clean sb jit);
  (* And the page is executable again. *)
  match
    Sky_mmu.Page_table.walk ~mem:(Kernel.mem k) ~root_pa:(Proc.cr3 jit)
      ~va:Layout.code_va
  with
  | Ok r -> Alcotest.(check bool) "exec" false r.Sky_mmu.Page_table.flags.Sky_mmu.Pte.nx
  | Error _ -> Alcotest.fail "mapped"

(* ------------------------------------------------------------------ *)
(* VPID ablation                                                       *)
(* ------------------------------------------------------------------ *)

let test_vpid_off_is_slower () =
  let measure vpid =
    let k, sb, client, _, sid = setup ~vpid () in
    let va = Kernel.map_anon k client 4096 in
    let vcpu = Kernel.vcpu k ~core:0 in
    Sky_mmu.Vcpu.set_mode vcpu Sky_mmu.Vcpu.User;
    let c = Kernel.cpu k ~core:0 in
    (* Steady state: call + touch own data each iteration. *)
    for _ = 1 to 3 do
      ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid (Bytes.create 8));
      ignore (Sky_mmu.Translate.read_u64 vcpu (Kernel.mem k) ~va)
    done;
    let t0 = Cpu.cycles c in
    for _ = 1 to 10 do
      ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid (Bytes.create 8));
      ignore (Sky_mmu.Translate.read_u64 vcpu (Kernel.mem k) ~va)
    done;
    Cpu.cycles c - t0
  in
  let with_vpid = measure true and without = measure false in
  Alcotest.(check bool)
    (Printf.sprintf "vpid on (%d) < vpid off (%d)" with_vpid without)
    true (with_vpid < without)

let () =
  Alcotest.run "core"
    [
      ( "rootkernel",
        [
          Alcotest.test_case "boot reserves memory" `Quick test_boot_reserves_memory;
          Alcotest.test_case "all cores virtualized" `Quick test_boot_virtualizes_all_cores;
          Alcotest.test_case "CPUID exits" `Quick test_cpuid_exits;
          Alcotest.test_case "EPT violation fatal" `Quick test_ept_violation_fatal;
        ] );
      ( "registration",
        [
          Alcotest.test_case "trampoline mapped RX" `Quick test_register_maps_trampoline;
          Alcotest.test_case "binary rewritten" `Quick test_register_rewrites_binary;
          Alcotest.test_case "client binding" `Quick test_register_client_builds_ept;
        ] );
      ( "direct_call",
        [
          Alcotest.test_case "roundtrip ~396 cycles" `Quick test_direct_call_roundtrip_cost;
          Alcotest.test_case "no kernel, no VM exits" `Quick
            test_direct_call_no_kernel_no_exit;
          Alcotest.test_case "address space + identity" `Quick
            test_direct_call_switches_address_space;
          Alcotest.test_case "large message via shared buffer" `Quick
            test_direct_call_large_message;
          Alcotest.test_case "nested calls (client->fs->disk)" `Quick
            test_nested_direct_calls;
        ] );
      ( "security",
        [
          Alcotest.test_case "unregistered client rejected" `Quick
            test_direct_call_unregistered_rejected;
          Alcotest.test_case "fake server key rejected" `Quick test_fake_key_rejected;
          Alcotest.test_case "corrupt return key rejected" `Quick
            test_corrupt_return_key_rejected;
          Alcotest.test_case "timeout DoS defence" `Quick test_timeout_dos_defence;
          Alcotest.test_case "faked VMFUNC neutered end-to-end" `Quick
            test_faked_vmfunc_defence_end_to_end;
          Alcotest.test_case "Meltdown-style isolation (SS7)" `Quick
            test_meltdown_isolation;
        ] );
      ( "trampoline",
        [
          Alcotest.test_case "structure" `Quick test_trampoline_structure;
          Alcotest.test_case "EXECUTES for real (VMFUNC switches spaces)" `Quick
            test_trampoline_executes_for_real;
          Alcotest.test_case "faked VMFUNC faults when executed" `Quick
            test_exec_faked_vmfunc_faults;
          Alcotest.test_case "rewritten attacker runs inert" `Quick
            test_exec_rewritten_attacker_is_inert;
          Alcotest.test_case "NX fetch enforced" `Quick test_exec_nx_enforced;
          Alcotest.test_case "fetch faults on NX second page" `Quick
            test_exec_fetch_nx_second_page;
          Alcotest.test_case "fetch faults on unmapped second page" `Quick
            test_exec_fetch_unmapped_second_page;
          Alcotest.test_case "MPK gate executes" `Quick test_mpk_gate_executes;
          Alcotest.test_case "MPK gate without XOR faults" `Quick
            test_mpk_gate_without_xor_faults;
          Alcotest.test_case "syscall gate stops at SYSCALL" `Quick
            test_syscall_gate_stops_at_syscall;
          Alcotest.test_case "golden gate bytes" `Quick test_trampoline_golden_bytes;
          Alcotest.test_case "Interp agrees with Exec" `Quick
            test_interp_agrees_with_exec;
          Alcotest.test_case "shared frame" `Quick test_trampoline_shared_frame;
          Alcotest.test_case "two clients isolated" `Quick test_two_clients_isolated;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_interp_agrees_with_exec ] );
      ( "eptp_lists",
        [
          Alcotest.test_case "context switch installs list" `Quick
            test_context_switch_installs_list;
          Alcotest.test_case "Table 5: no exits w/o SkyBridge" `Quick
            test_unregistered_switches_no_exits;
          Alcotest.test_case "LRU eviction beyond max" `Quick test_eptp_eviction;
          Alcotest.test_case "slot reuse bounded by max_eptp" `Quick
            test_eptp_slot_reuse;
          Alcotest.test_case "LRU never evicts recently-touched" `Quick
            test_eptp_lru_never_evicts_recent;
          Alcotest.test_case "global max_bindings retires LRU process" `Quick
            test_max_bindings_global_budget;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "W^X rescan" `Quick test_wx_rescan;
          Alcotest.test_case "VPID ablation" `Quick test_vpid_off_is_slower;
        ] );
    ]
