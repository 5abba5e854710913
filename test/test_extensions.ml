(* Tests for the beyond-the-paper features: capabilities, asynchronous
   notifications, temporary-mapping long IPC, the monolithic personality,
   and a randomized whole-system workout of the SkyBridge state machine. *)

open Sky_ukernel
open Sky_kernels

let make ?(variant = Config.Sel4) ?enforce_caps ?long_ipc () =
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:64 () in
  let k = Kernel.create ~config:(Config.default variant) machine in
  (k, Ipc.create ?enforce_caps ?long_ipc k)

(* ------------------------------------------------------------------ *)
(* Capabilities                                                        *)
(* ------------------------------------------------------------------ *)

let test_cap_mint_check () =
  let r = Capability.create_registry () in
  let c = Capability.mint r ~owner:1 ~target:7 ~rights:Capability.all_rights ~badge:0 in
  Alcotest.(check bool) "owner holds send" true
    (Capability.check r ~pid:1 ~target:7 ~need:Capability.send_only);
  Alcotest.(check bool) "other pid does not" false
    (Capability.check r ~pid:2 ~target:7 ~need:Capability.send_only);
  Alcotest.(check int) "accessors" 7 (Capability.target c);
  Alcotest.(check bool) "live" true (Capability.is_live r c)

let test_cap_derive_diminishes () =
  let r = Capability.create_registry () in
  let root = Capability.mint r ~owner:1 ~target:7 ~rights:Capability.all_rights ~badge:0 in
  let child = Capability.derive r root ~new_owner:2 ~badge:42 Capability.send_only in
  Alcotest.(check bool) "child can send" true (Capability.rights child).Capability.send;
  Alcotest.(check bool) "child cannot grant" false
    (Capability.rights child).Capability.grant;
  Alcotest.(check int) "badge" 42 (Capability.badge child);
  (* A send-only cap cannot be derived from. *)
  try
    ignore (Capability.derive r child ~new_owner:3 Capability.send_only);
    Alcotest.fail "expected Cap_denied"
  with Capability.Cap_denied _ -> ()

let test_cap_revoke_subtree () =
  let r = Capability.create_registry () in
  let root = Capability.mint r ~owner:1 ~target:7 ~rights:Capability.all_rights ~badge:0 in
  let a = Capability.derive r root ~new_owner:2 Capability.all_rights in
  let b = Capability.derive r a ~new_owner:3 Capability.send_only in
  Capability.revoke r root;
  Alcotest.(check bool) "root survives" true (Capability.is_live r root);
  Alcotest.(check bool) "children dead" false (Capability.is_live r a);
  Alcotest.(check bool) "grandchildren dead" false (Capability.is_live r b);
  Alcotest.(check bool) "pid 3 cut off" false
    (Capability.check r ~pid:3 ~target:7 ~need:Capability.send_only)

let test_cap_enforced_ipc () =
  let k, ipc = make ~enforce_caps:true () in
  let client = Kernel.spawn k ~name:"client" in
  let server = Kernel.spawn k ~name:"server" in
  let ep = Ipc.register ipc server (fun ~core:_ m -> m) in
  Kernel.context_switch k ~core:0 client;
  (* No capability yet: denied. *)
  (try
     ignore (Ipc.call ipc ~core:0 ~client ep (Bytes.create 8));
     Alcotest.fail "expected Cap_denied"
   with Capability.Cap_denied { reason; _ } ->
     Alcotest.(check string) "reason" "no send capability" reason);
  (* Grant, call, revoke, call again. *)
  let cap = Ipc.grant_send ipc ep client in
  Alcotest.(check int) "echo works with cap" 8
    (Bytes.length (Ipc.call ipc ~core:0 ~client ep (Bytes.create 8)));
  Capability.delete (Ipc.caps ipc) cap;
  try
    ignore (Ipc.call ipc ~core:0 ~client ep (Bytes.create 8));
    Alcotest.fail "expected Cap_denied after delete"
  with Capability.Cap_denied _ -> ()

let prop_cap_rights_never_amplify =
  QCheck.Test.make ~name:"derived rights never exceed the parent's" ~count:100
    QCheck.(
      pair (tup3 bool bool bool) (list_of_size (Gen.int_range 1 6) (tup3 bool bool bool)))
    (fun ((s, rcv, g), chain) ->
      let r = Capability.create_registry () in
      let root =
        Capability.mint r ~owner:0 ~target:1
          ~rights:{ Capability.send = s; recv = rcv; grant = g }
          ~badge:0
      in
      let rec go parent owner = function
        | [] -> true
        | (s', r', g') :: rest -> (
          match
            Capability.derive r parent ~new_owner:owner
              { Capability.send = s'; recv = r'; grant = g' }
          with
          | child ->
            let cr = Capability.rights child and pr = Capability.rights parent in
            ((not cr.Capability.send) || pr.Capability.send)
            && ((not cr.Capability.recv) || pr.Capability.recv)
            && ((not cr.Capability.grant) || pr.Capability.grant)
            && go child (owner + 1) rest
          | exception Capability.Cap_denied _ ->
            (* only legal when the parent lacks grant *)
            not (Capability.rights parent).Capability.grant)
      in
      go root 1 chain)

(* ------------------------------------------------------------------ *)
(* Notifications                                                       *)
(* ------------------------------------------------------------------ *)

let test_notification_signal_wait () =
  let k, _ = make () in
  let n = Notification.create k ~name:"irq" in
  Notification.signal n ~core:0 ~badge:0b01;
  Alcotest.(check int) "wait gets badge" 0b01 (Notification.wait n ~core:0);
  try
    ignore (Notification.wait n ~core:0);
    Alcotest.fail "expected Would_block"
  with Notification.Would_block -> ()

let test_notification_coalesce () =
  let k, _ = make () in
  let n = Notification.create k ~name:"n" in
  Notification.signal n ~core:0 ~badge:0b001;
  Notification.signal n ~core:0 ~badge:0b100;
  Notification.signal n ~core:0 ~badge:0b100;
  Alcotest.(check int) "badges OR-coalesce" 0b101 (Notification.wait n ~core:0);
  Alcotest.(check int) "three signals counted" 3 (Notification.signals n)

let test_notification_poll () =
  let k, _ = make () in
  let n = Notification.create k ~name:"n" in
  Alcotest.(check (option int)) "empty poll" None (Notification.poll n ~core:0);
  Notification.signal n ~core:0 ~badge:7;
  Alcotest.(check (option int)) "poll consumes" (Some 7) (Notification.poll n ~core:0);
  Alcotest.(check (option int)) "then empty" None (Notification.poll n ~core:0)

let test_notification_cross_core_timing () =
  let k, _ = make () in
  let n = Notification.create k ~name:"n" in
  (* Signaler far ahead on core 1: the core-0 waiter must advance to the
     signal's delivery time. *)
  Sky_sim.Cpu.charge (Kernel.cpu k ~core:1) 100_000;
  Notification.signal n ~core:1 ~badge:1;
  let w = Notification.wait n ~core:0 in
  Alcotest.(check int) "badge" 1 w;
  Alcotest.(check bool) "waiter advanced past signal time" true
    (Sky_sim.Cpu.cycles (Kernel.cpu k ~core:0) >= 100_000)

let test_notification_multi_waiter_coalesce () =
  let k, _ = make () in
  let n = Notification.create k ~name:"nic-irq" in
  (* Two cores block in recv, the NIC IRQ consumer path. *)
  Alcotest.(check int) "core 1 blocks" 0
    (Notification.wait_blocking ~polls:0 n ~core:1);
  Alcotest.(check int) "core 2 blocks" 0
    (Notification.wait_blocking ~polls:0 n ~core:2);
  Alcotest.(check (list int)) "both registered, oldest first" [ 1; 2 ]
    (Notification.waiting_cores n);
  (* Three signals race the wakeups: one IPI per blocked remote core on
     the first signal only; the later badges coalesce into the word. *)
  Notification.signal n ~core:0 ~badge:0b001;
  Alcotest.(check int) "one IPI per blocked waiter" 2 (Notification.ipis n);
  Alcotest.(check (list int)) "waiters woken exactly once" []
    (Notification.waiting_cores n);
  Notification.signal n ~core:0 ~badge:0b010;
  Notification.signal n ~core:0 ~badge:0b100;
  Alcotest.(check int) "no IPIs while nobody blocks" 2 (Notification.ipis n);
  (* The first waiter to run consumes the whole coalesced word... *)
  Alcotest.(check int) "union of all three badges" 0b111
    (Notification.wait_blocking ~polls:0 n ~core:1);
  (* ...and the second finds it empty and re-registers: three signals,
     two woken waiters, one delivered word. *)
  Alcotest.(check int) "second waiter re-blocks" 0
    (Notification.wait_blocking ~polls:0 n ~core:2);
  Alcotest.(check (list int)) "re-registered" [ 2 ]
    (Notification.waiting_cores n)

(* Run [core]'s clock up to [at] cycles (a signaler "far ahead"). *)
let at k ~core c = Sky_sim.Cpu.advance_to (Kernel.cpu k ~core) c
let cycles k ~core = Sky_sim.Cpu.cycles (Kernel.cpu k ~core)

let test_notification_oldest_signal_time () =
  let k, _ = make () in
  let n = Notification.create k ~name:"n" in
  at k ~core:1 100_000;
  Notification.signal n ~core:1 ~badge:0b01;
  at k ~core:2 300_000;
  Notification.signal n ~core:2 ~badge:0b10;
  Alcotest.(check int) "both badges" 0b11 (Notification.wait n ~core:0);
  (* The waiter lands at the oldest pending signal's time, not the
     newest's. *)
  let c = cycles k ~core:0 in
  Alcotest.(check bool) (Printf.sprintf "100k <= %d < 300k" c) true
    (c >= 100_000 && c < 300_000)

let test_notification_poll_clears_time () =
  let k, _ = make () in
  let n = Notification.create k ~name:"n" in
  at k ~core:1 300_000;
  Notification.signal n ~core:1 ~badge:1;
  Alcotest.(check (option int)) "poll consumes" (Some 1) (Notification.poll n ~core:0);
  at k ~core:2 100_000;
  Notification.signal n ~core:2 ~badge:2;
  Alcotest.(check int) "second badge" 2 (Notification.wait n ~core:0);
  (* The polled signal's 300k delivery time went with its word. *)
  let c = cycles k ~core:0 in
  Alcotest.(check bool) (Printf.sprintf "100k <= %d < 300k" c) true
    (c >= 100_000 && c < 300_000)

let test_notification_fresh_time_after_consume () =
  let k, _ = make () in
  let n = Notification.create k ~name:"n" in
  at k ~core:1 100_000;
  Notification.signal n ~core:1 ~badge:1;
  ignore (Notification.wait n ~core:0);
  Alcotest.(check bool) "first wait lands past 100k" true (cycles k ~core:0 >= 100_000);
  at k ~core:2 300_000;
  Notification.signal n ~core:2 ~badge:1;
  ignore (Notification.wait n ~core:0);
  Alcotest.(check bool) "second wait lands past 300k" true (cycles k ~core:0 >= 300_000)

let test_notification_zero_badge_rejected () =
  let k, _ = make () in
  let n = Notification.create k ~name:"n" in
  Alcotest.(check int) "core 0 blocks" 0
    (Notification.wait_blocking ~polls:0 n ~core:0);
  at k ~core:1 100_000;
  let before = cycles k ~core:1 in
  Alcotest.check_raises "zero badge" (Invalid_argument "Notification.signal: zero badge")
    (fun () -> Notification.signal n ~core:1 ~badge:0);
  Alcotest.(check int) "nothing charged" before (cycles k ~core:1);
  Alcotest.(check int) "nothing counted" 0 (Notification.signals n);
  Alcotest.(check int) "no IPI" 0 (Notification.ipis n);
  Alcotest.(check (list int)) "waiter still blocked" [ 0 ] (Notification.waiting_cores n);
  (* A later real signal is delivered at its own time, not at the
     rejected one's. *)
  at k ~core:2 300_000;
  Notification.signal n ~core:2 ~badge:1;
  Alcotest.(check int) "badge" 1 (Notification.wait n ~core:0);
  Alcotest.(check bool) "delivered past 300k" true (cycles k ~core:0 >= 300_000)

(* ------------------------------------------------------------------ *)
(* Temporary mapping                                                   *)
(* ------------------------------------------------------------------ *)

let roundtrip ipc k ~client ep len =
  let msg = Bytes.create len in
  for _ = 1 to 10 do
    ignore (Ipc.call ipc ~core:0 ~client ep msg)
  done;
  let cpu = Kernel.cpu k ~core:0 in
  let t0 = Sky_sim.Cpu.cycles cpu in
  for _ = 1 to 50 do
    ignore (Ipc.call ipc ~core:0 ~client ep msg)
  done;
  (Sky_sim.Cpu.cycles cpu - t0) / 50

let test_tempmap_semantics_and_crossover () =
  let measure long_ipc len =
    let k, ipc = make ~long_ipc () in
    let client = Kernel.spawn k ~name:"c" in
    let server = Kernel.spawn k ~name:"s" in
    let seen = ref 0 in
    let ep =
      Ipc.register ipc server (fun ~core:_ m ->
          seen := Bytes.length m;
          Bytes.create 8)
    in
    Kernel.context_switch k ~core:0 client;
    let c = roundtrip ipc k ~client ep len in
    Alcotest.(check int) "payload delivered" len !seen;
    c
  in
  (* Small messages: the map/INVLPG overhead loses. *)
  Alcotest.(check bool) "copy wins at 64B" true
    (measure Ipc.Shared_copy 64 < measure Ipc.Temp_map 64);
  (* Multi-page messages: temporary mapping wins. *)
  Alcotest.(check bool) "tempmap wins at 8KB" true
    (measure Ipc.Temp_map 8192 < measure Ipc.Shared_copy 8192)

(* ------------------------------------------------------------------ *)
(* Monolithic personality                                              *)
(* ------------------------------------------------------------------ *)

let test_linux_ipc_slowest_but_works () =
  let per_variant variant =
    let k, ipc = make ~variant () in
    let client = Kernel.spawn k ~name:"c" in
    let server = Kernel.spawn k ~name:"s" in
    let ep = Ipc.register ipc server (fun ~core:_ m -> m) in
    Kernel.context_switch k ~core:0 client;
    roundtrip ipc k ~client ep 8
  in
  let sel4 = per_variant Config.Sel4 and linux = per_variant Config.Linux in
  Alcotest.(check bool)
    (Printf.sprintf "linux socket (%d) slower than seL4 fastpath (%d)" linux sel4)
    true (linux > sel4)

let test_skybridge_on_linux () =
  (* The §10 claim in executable form: the same Subkernel slots under the
     monolithic personality and direct calls still cost ~396 cycles. *)
  let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:64 () in
  let k = Kernel.create ~config:(Config.default Config.Linux) machine in
  let sb = Sky_core.Subkernel.init k in
  let client = Kernel.spawn k ~name:"c" in
  let server = Kernel.spawn k ~name:"s" in
  let sid = Sky_core.Subkernel.register_server sb server (fun ~core:_ m -> m) in
  Sky_core.Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch k ~core:0 client;
  let cpu = Kernel.cpu k ~core:0 in
  ignore (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid (Bytes.create 8));
  let t0 = Sky_sim.Cpu.cycles cpu in
  for _ = 1 to 100 do
    ignore (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid (Bytes.create 8))
  done;
  let rt = (Sky_sim.Cpu.cycles cpu - t0) / 100 in
  Alcotest.(check bool) (Printf.sprintf "roundtrip %d ~ 400" rt) true
    (rt >= 396 && rt <= 450)

(* ------------------------------------------------------------------ *)
(* Scheduling policies (§8.1)                                          *)
(* ------------------------------------------------------------------ *)

let sched_cpu () = Sky_sim.Machine.core (Sky_sim.Machine.create ~cores:1 ~mem_mib:1 ()) 0

let test_benno_pick_is_bounded () =
  let cpu = sched_cpu () in
  let s = Scheduler.create Scheduler.Benno in
  let threads = List.init 16 (fun i -> Scheduler.spawn_thread s ~tid:i) in
  (* Block everyone but the last; under Benno the queue holds only that
     one, so every pick examines exactly one entry. *)
  List.iteri (fun i th -> if i < 15 then Scheduler.block s cpu th) threads;
  let before = Scheduler.examined s in
  (match Scheduler.pick s cpu with
  | Some th -> Alcotest.(check int) "picked the runnable one" 15 (Scheduler.tid th)
  | None -> Alcotest.fail "expected a thread");
  Alcotest.(check int) "O(1) pick" 1 (Scheduler.examined s - before)

let test_lazy_pick_is_unbounded () =
  let cpu = sched_cpu () in
  let s = Scheduler.create Scheduler.Lazy_scheduling in
  let threads = List.init 16 (fun i -> Scheduler.spawn_thread s ~tid:i) in
  List.iteri (fun i th -> if i < 15 then Scheduler.block s cpu th) threads;
  let before = Scheduler.examined s in
  (match Scheduler.pick s cpu with
  | Some th -> Alcotest.(check int) "still picks correctly" 15 (Scheduler.tid th)
  | None -> Alcotest.fail "expected a thread");
  Alcotest.(check int) "waded through all stale entries" 16
    (Scheduler.examined s - before)

let test_sched_empty_queue () =
  let cpu = sched_cpu () in
  List.iter
    (fun policy ->
      let s = Scheduler.create policy in
      Alcotest.(check bool) "empty pick" true (Scheduler.pick s cpu = None);
      let th = Scheduler.spawn_thread s ~tid:1 in
      Scheduler.block s cpu th;
      Alcotest.(check bool) "all blocked -> none" true (Scheduler.pick s cpu = None);
      Scheduler.wake s cpu th;
      Alcotest.(check bool) "wake -> found" true (Scheduler.pick s cpu <> None))
    [ Scheduler.Lazy_scheduling; Scheduler.Benno ]

let prop_sched_invariants =
  (* The two policies order differently (lazy keeps a woken thread's old
     queue position; Benno re-enqueues at the tail), but both must uphold:
     a pick never returns a blocked thread; Benno picks in O(1); a pick
     that returns None means the queue drained; and a freshly woken
     thread is always eventually pickable. *)
  QCheck.Test.make ~name:"scheduler invariants under random churn" ~count:100
    QCheck.(
      pair bool
        (list_of_size (Gen.int_range 1 60) (pair (int_bound 2) (int_bound 7))))
    (fun (benno, script) ->
      let policy = if benno then Scheduler.Benno else Scheduler.Lazy_scheduling in
      let cpu = sched_cpu () in
      let s = Scheduler.create policy in
      let threads = Array.init 8 (fun i -> Scheduler.spawn_thread s ~tid:i) in
      let ok = ref true in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 -> Scheduler.block s cpu threads.(x)
          | 1 -> Scheduler.wake s cpu threads.(x)
          | _ -> (
            let before = Scheduler.examined s in
            match Scheduler.pick s cpu with
            | Some th ->
              if not (Scheduler.runnable th) then ok := false;
              if benno && Scheduler.examined s - before <> 1 then ok := false;
              Scheduler.block s cpu th
            | None -> if Scheduler.queue_length s <> 0 then ok := false))
        script;
      (* Liveness: wake someone and the next pick must find a thread. *)
      Scheduler.wake s cpu threads.(0);
      (match Scheduler.pick s cpu with
      | Some th -> if not (Scheduler.runnable th) then ok := false
      | None -> ok := false);
      !ok)

let prop_benno_o1 =
  (* Benno's O(1) invariant, aggregate form: over arbitrary
     wake/block/pick churn, the total entries examined equals exactly
     the number of successful picks (only ever the queue head), and both
     the examined count and the cycles the scheduler charges are
     independent of how many blocked threads exist — a crowd of idle
     bystanders adds nothing to pick cost (the point of the design,
     §8.1). *)
  QCheck.Test.make ~name:"Benno: one examined entry per pick, any population"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 80) (pair (int_bound 2) (int_bound 7)))
    (fun script ->
      let run extra_blocked =
        let cpu = sched_cpu () in
        let s = Scheduler.create Scheduler.Benno in
        let threads = Array.init 8 (fun i -> Scheduler.spawn_thread s ~tid:i) in
        for i = 0 to extra_blocked - 1 do
          Scheduler.block s cpu (Scheduler.spawn_thread s ~tid:(100 + i))
        done;
        let setup_cycles = Sky_sim.Cpu.cycles cpu in
        let picks = ref 0 in
        List.iter
          (fun (op, x) ->
            match op with
            | 0 -> Scheduler.block s cpu threads.(x)
            | 1 -> Scheduler.wake s cpu threads.(x)
            | _ -> (
              match Scheduler.pick s cpu with
              | Some _ -> incr picks
              | None -> ()))
          script;
        (Scheduler.examined s, !picks, Sky_sim.Cpu.cycles cpu - setup_cycles)
      in
      let examined0, picks0, cycles0 = run 0 in
      let examined56, picks56, cycles56 = run 56 in
      examined0 = picks0 && examined56 = examined0 && picks56 = picks0
      && cycles56 = cycles0)

(* ------------------------------------------------------------------ *)
(* Binary images and the loader                                        *)
(* ------------------------------------------------------------------ *)

open Sky_isa

let dirty_text name vaddr =
  {
    Binfmt.name;
    vaddr;
    kind = Binfmt.Text;
    body =
      Encode.encode_all
        [ Insn.Mov_ri (Reg.Rax, 1L); Insn.Vmfunc; Insn.Add_ri (Reg.Rax, 0xD4010F);
          Insn.Ret ];
  }

let test_binfmt_roundtrip () =
  let img =
    {
      Binfmt.entry = 0x400000;
      sections =
        [
          dirty_text ".text" 0x400000;
          { Binfmt.name = ".rodata"; vaddr = 0x600000; kind = Binfmt.Rodata;
            body = Bytes.of_string "\x0f\x01\xd4constants" };
          { Binfmt.name = ".data"; vaddr = 0x700000; kind = Binfmt.Data;
            body = Bytes.make 100 'd' };
        ];
    }
  in
  let img' = Binfmt.decode (Binfmt.encode img) in
  Alcotest.(check int) "entry" img.Binfmt.entry img'.Binfmt.entry;
  Alcotest.(check int) "sections" 3 (List.length img'.Binfmt.sections);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "name" a.Binfmt.name b.Binfmt.name;
      Alcotest.(check bool) "body" true (Bytes.equal a.Binfmt.body b.Binfmt.body))
    img.Binfmt.sections img'.Binfmt.sections

let test_binfmt_rejects_garbage () =
  (try
     ignore (Binfmt.decode (Bytes.of_string "ELF?nope"));
     Alcotest.fail "expected Bad_image"
   with Binfmt.Bad_image _ -> ());
  let overlapping =
    {
      Binfmt.entry = 0;
      sections =
        [ { Binfmt.name = "a"; vaddr = 0x1000; kind = Binfmt.Text; body = Bytes.make 8192 '\x90' };
          { Binfmt.name = "b"; vaddr = 0x2000; kind = Binfmt.Data; body = Bytes.make 16 'x' } ];
    }
  in
  try
    Binfmt.validate overlapping;
    Alcotest.fail "expected overlap rejection"
  with Binfmt.Bad_image _ -> ()

let test_loader_section_protections () =
  let k, _ = make () in
  let p = Kernel.spawn k ~name:"app" in
  let img =
    {
      Binfmt.entry = 0x400000;
      sections =
        [
          dirty_text ".text" 0x400000;
          { Binfmt.name = ".rodata"; vaddr = 0x600000; kind = Binfmt.Rodata;
            body = Bytes.of_string "\x0f\x01\xd4" };
          { Binfmt.name = ".data"; vaddr = 0x700000; kind = Binfmt.Data;
            body = Bytes.make 64 'd' };
        ];
    }
  in
  Kernel.load_image k p img;
  let walk va =
    match
      Sky_mmu.Page_table.walk ~mem:(Kernel.mem k) ~root_pa:(Proc.cr3 p) ~va
    with
    | Ok r -> r.Sky_mmu.Page_table.flags
    | Error _ -> Alcotest.failf "va %#x unmapped" va
  in
  let text = walk 0x400000 and ro = walk 0x600000 and data = walk 0x700000 in
  Alcotest.(check bool) "text executable" false text.Sky_mmu.Pte.nx;
  Alcotest.(check bool) "text read-only" false text.Sky_mmu.Pte.writable;
  Alcotest.(check bool) "rodata NX" true ro.Sky_mmu.Pte.nx;
  Alcotest.(check bool) "data writable" true data.Sky_mmu.Pte.writable;
  Alcotest.(check bool) "data NX" true data.Sky_mmu.Pte.nx

let test_multi_section_registration () =
  (* Two dirty text sections + pattern-bearing rodata: registration must
     clean both text sections (with disjoint rewrite pages) and leave the
     rodata byte-identical. *)
  let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Sky_core.Subkernel.init k in
  let p = Kernel.spawn k ~name:"app" in
  let ro_body = Bytes.of_string "\x0f\x01\xd4 lookup table \x0f\x01\xd4" in
  Kernel.load_image k p
    {
      Binfmt.entry = 0x400000;
      sections =
        [
          dirty_text ".text" 0x400000;
          dirty_text ".text.hot" 0x500000;
          { Binfmt.name = ".rodata"; vaddr = 0x600000; kind = Binfmt.Rodata;
            body = Bytes.copy ro_body };
        ];
    };
  ignore (Sky_core.Subkernel.register_server sb p (fun ~core:_ m -> m));
  Alcotest.(check bool) "both text sections clean" true
    (Sky_core.Subkernel.proc_is_clean sb p);
  (* Rodata untouched (data may legitimately contain the pattern). *)
  let vcpu = Kernel.vcpu k ~core:0 in
  Kernel.context_switch k ~core:0 p;
  let back =
    Sky_mmu.Translate.read_bytes vcpu (Kernel.mem k) ~va:0x600000
      ~len:(Bytes.length ro_body)
  in
  Alcotest.(check bool) "rodata byte-identical" true (Bytes.equal ro_body back)

(* ------------------------------------------------------------------ *)
(* Randomized whole-system workout                                     *)
(* ------------------------------------------------------------------ *)

(* A random sequence of spawn / register-server / bind / direct-call
   operations must never corrupt the SkyBridge state machine: every call
   that should succeed echoes its payload, every unbound call raises
   Not_registered, and the live identity is always the client's after a
   call completes. Runs with a small EPTP list so eviction is exercised
   too. *)
let prop_subkernel_workout =
  QCheck.Test.make ~name:"random register/bind/call sequences stay coherent"
    ~count:25
    QCheck.(list_of_size (Gen.int_range 5 60) (pair (int_bound 3) small_nat))
    (fun script ->
      let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:128 () in
      let k = Kernel.create machine in
      let sb = Sky_core.Subkernel.init ~max_eptp:4 k in
      let servers = ref [] in
      let clients = ref [] in
      let bound : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
      let nth l n = List.nth l (n mod List.length l) in
      let ok = ref true in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
            let p = Kernel.spawn k ~name:(Printf.sprintf "c%d" x) in
            clients := p :: !clients
          | 1 ->
            let p = Kernel.spawn k ~name:(Printf.sprintf "s%d" x) in
            let sid =
              Sky_core.Subkernel.register_server sb p (fun ~core:_ m -> m)
            in
            servers := (sid, p) :: !servers
          | 2 ->
            if !servers <> [] && !clients <> [] then begin
              let sid, _ = nth !servers x in
              let c = nth !clients x in
              Sky_core.Subkernel.register_client_to_server sb c ~server_id:sid;
              Hashtbl.replace bound (c.Proc.pid, sid) ()
            end
          | _ ->
            if !servers <> [] && !clients <> [] then begin
              let sid, _ = nth !servers x in
              let c = nth !clients x in
              let core = x mod 4 in
              Kernel.context_switch k ~core c;
              let payload = Bytes.make ((x mod 100) + 1) 'p' in
              let expect_ok = Hashtbl.mem bound (c.Proc.pid, sid) in
              match
                Sky_core.Subkernel.direct_server_call sb ~core ~client:c
                  ~server_id:sid payload
              with
              | reply ->
                if not expect_ok then ok := false;
                if not (Bytes.equal reply payload) then ok := false;
                if Sky_core.Subkernel.current_identity sb ~core <> c.Proc.pid
                then ok := false
              | exception Sky_core.Subkernel.Not_registered _ ->
                if expect_ok then ok := false
            end)
        script;
      !ok)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "capabilities",
        [
          Alcotest.test_case "mint + check" `Quick test_cap_mint_check;
          Alcotest.test_case "derive diminishes" `Quick test_cap_derive_diminishes;
          Alcotest.test_case "revoke subtree" `Quick test_cap_revoke_subtree;
          Alcotest.test_case "enforced on IPC" `Quick test_cap_enforced_ipc;
        ]
        @ qc [ prop_cap_rights_never_amplify ] );
      ( "notifications",
        [
          Alcotest.test_case "signal/wait" `Quick test_notification_signal_wait;
          Alcotest.test_case "badge coalescing" `Quick test_notification_coalesce;
          Alcotest.test_case "poll" `Quick test_notification_poll;
          Alcotest.test_case "cross-core timing" `Quick
            test_notification_cross_core_timing;
          Alcotest.test_case "multi-waiter coalescing" `Quick
            test_notification_multi_waiter_coalesce;
          Alcotest.test_case "oldest signal's time" `Quick
            test_notification_oldest_signal_time;
          Alcotest.test_case "poll clears delivery time" `Quick
            test_notification_poll_clears_time;
          Alcotest.test_case "fresh time after consume" `Quick
            test_notification_fresh_time_after_consume;
          Alcotest.test_case "zero badge rejected" `Quick
            test_notification_zero_badge_rejected;
        ] );
      ( "temp_mapping",
        [
          Alcotest.test_case "semantics + crossover" `Quick
            test_tempmap_semantics_and_crossover;
        ] );
      ( "monolithic",
        [
          Alcotest.test_case "linux IPC works, slower" `Quick
            test_linux_ipc_slowest_but_works;
          Alcotest.test_case "skybridge on linux ~400cyc" `Quick
            test_skybridge_on_linux;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "Benno pick O(1)" `Quick test_benno_pick_is_bounded;
          Alcotest.test_case "lazy pick unbounded" `Quick test_lazy_pick_is_unbounded;
          Alcotest.test_case "empty/blocked queues" `Quick test_sched_empty_queue;
        ]
        @ qc [ prop_sched_invariants; prop_benno_o1 ] );
      ( "binfmt",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick test_binfmt_roundtrip;
          Alcotest.test_case "rejects garbage + overlap" `Quick
            test_binfmt_rejects_garbage;
          Alcotest.test_case "loader protections" `Quick
            test_loader_section_protections;
          Alcotest.test_case "multi-section registration" `Quick
            test_multi_section_registration;
        ] );
      ("workout", qc [ prop_subkernel_workout ]);
    ]
