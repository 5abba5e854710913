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

let l1 () = Cache.create ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64

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
  let p = Psc.create ~entries:32 ~ways:4 in
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
  (* Two pages 16 apart share a TLB set, so the set scan finds them in
     different ways. *)
  let flip = ref false in
  let va () = if !flip then ws else ws + (16 * 4096) in
  ignore (Translate.translate vcpu mem Translate.data_write ~va:ws);
  ignore (Translate.translate vcpu mem Translate.data_write ~va:(va ()));
  let misses0 = Sky_sim.Tlb.misses dtlb in
  check_zero "Translate.translate TLB hit" (fun () ->
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

(* A guest copy straddling a page boundary: the read allocates its
   destination and nothing else ([n / 8 + 2] words for [n] bytes), the
   write nothing at all. 1,000 bytes keep the destination on the minor
   heap. *)
let test_translate_copy () =
  let vcpu, mem, ws = rig () in
  let len = 1000 in
  let va = ws + 4096 - (len / 2) in
  let src = Bytes.make len 'c' in
  check_zero "Translate.write_bytes (two pages)" (fun () ->
      Translate.write_bytes vcpu mem ~va src);
  check_words "Translate.read_bytes (two pages)" ~per_op:((len / 8) + 2) (fun () ->
      ignore (Translate.read_bytes vcpu mem ~va ~len));
  Alcotest.(check bool) "the copy round-trips" true
    (Bytes.equal src (Translate.read_bytes vcpu mem ~va ~len))

(* A state-only touch of a resident instruction range — a worker's
   6 KiB text on every request — replays its remembered slots. *)
let test_resident_text () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let cpu = Machine.core machine 0 in
  let touch () = Memsys.touch_range_state_only cpu Memsys.Insn ~pa:0x10000 ~len:(96 * 64) in
  touch ();
  let hits0 = Cache.hits cpu.Cpu.l1i in
  check_zero "Memsys.touch_range_state_only (resident, 96 lines)" touch;
  Alcotest.(check int) "every line hit the L1i" ((iters + 1) * 96)
    (Cache.hits cpu.Cpu.l1i - hits0)

(* ------------------------------------------------------------------ *)
(* Random numbers                                                       *)
(* ------------------------------------------------------------------ *)

let test_rng_int () =
  let r = Rng.create ~seed:7 in
  check_zero "Rng.int" (fun () -> ignore (Rng.int r 1000))

(* The first draws of every generator function for two seeds, recorded
   before the state was unboxed: the stream must not move. *)
let test_rng_golden () =
  let golden seed ~next ~ints ~int64s ~bytes ~split ~after =
    let r = Rng.create ~seed in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check (list int)) (name "next") next (List.init 3 (fun _ -> Rng.next r));
    Alcotest.(check (list int)) (name "int") ints (List.init 3 (fun _ -> Rng.int r 1000));
    Alcotest.(check (list int64)) (name "next_int64") int64s
      (List.init 2 (fun _ -> Rng.next_int64 r));
    Alcotest.(check string) (name "bytes") bytes (Bytes.to_string (Rng.bytes r 8));
    let c = Rng.split r in
    Alcotest.(check (list int)) (name "split") split (List.init 2 (fun _ -> Rng.next c));
    Alcotest.(check int) (name "next after split") after (Rng.next r)
  in
  golden 1
    ~next:[ 1227844342346046657; 4533873174211652711; 4076781235000726878 ]
    ~ints:[ 331; 857; 336 ]
    ~int64s:[ -2262517385565684571L; -8797857673641491083L ]
    ~bytes:"\168\150a\254\192\138\168;"
    ~split:[ 2601951497568540838; 4220679941687272708 ]
    ~after:1205505486458956529;
  golden 42
    ~next:[ 4456085495900499605; 2949826092126892291; 527597730035375954 ]
    ~ints:[ 860; 250; 350 ]
    ~int64s:[ 4028864712777624925L; -3677692746721775708L ]
    ~bytes:"\213\174\191\190\230\183\220\242"
    ~split:[ 2941599261480896098; 1618715976042603989 ]
    ~after:4528650917318204957

(* ------------------------------------------------------------------ *)
(* Mediated call                                                        *)
(* ------------------------------------------------------------------ *)

(* The pingpong rig's VMFUNC call, handler included. What remains is
   the handler's four [read_u64] results, boxed [int64]s of 3 words
   each, and the 2-word [Ok] the typed call returns and
   [direct_server_call] unwraps. The crossing itself allocates
   nothing: the span closures
   (VMFUNC, copies, key check) are built only when tracing is on, the
   key table is compared in place, the client key is an immediate, the
   crossing token and the call frame are reused per core and depth, and
   the root client's option, the server and binding lookups, the
   EPTP-slot check and the callee-saved register save allocate nothing.
   The bound is the measured value (141 words before the call frames
   became flat arrays, 50 while [Vmfunc.execute] still built its span
   closure on every EPTP switch), so a new per-call allocation fails
   here. *)
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
  check_words "Subkernel.direct_server_call (VMFUNC)" ~per_op:14 (fun () ->
      ignore (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client ~server_id msg))

(* A mediated call with an echo handler on every transport, for an
   8-byte message (registers) and a 48-byte one (through the shared
   buffer or the IPC buffer). What a call may allocate is its wire
   bytes: a [Subkernel.call] its [Ok] (2 words) and, for a large
   message, the request copied in on the server side and the reply
   copied back (8 words each for 48 bytes); seL4's [Ipc.call] nothing,
   since a context switch stores the process's prebuilt [Some] (4/4
   while it built one per leg). Bounds = measured (at the parent of the
   allocation-free crossings: 43/151 words under VMFUNC, 41/149 under
   MPK, 47/155 under the filtered syscall, 149/301 over seL4 IPC). *)
let test_transports () =
  let echo ~core:_ m = m in
  let subkernel backend =
    let machine = Machine.create ~cores:2 ~mem_mib:64 () in
    let kernel = Kernel.create machine in
    let sb = Sky_core.Subkernel.init ~backend kernel in
    let client = Kernel.spawn kernel ~name:"client" in
    let server = Kernel.spawn kernel ~name:"server" in
    let server_id = Sky_core.Subkernel.register_server sb server echo in
    Sky_core.Subkernel.register_client_to_server sb client ~server_id;
    Kernel.context_switch kernel ~core:0 client;
    Vcpu.set_mode (Kernel.vcpu kernel ~core:0) Vcpu.User;
    fun msg ->
      match Sky_core.Subkernel.call sb ~core:0 ~client ~server_id msg with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "call failed"
  in
  let sel4 () =
    let machine = Machine.create ~cores:2 ~mem_mib:64 () in
    let kernel = Kernel.create ~config:(Config.default Config.Sel4) machine in
    let ipc = Ipc.create kernel in
    let client = Kernel.spawn kernel ~name:"client" in
    let ep = Ipc.register ipc (Kernel.spawn kernel ~name:"server") echo in
    Kernel.context_switch kernel ~core:0 client;
    fun msg -> ignore (Ipc.call ipc ~core:0 ~client ep msg)
  in
  List.iter
    (fun (name, call, small, large) ->
      let msg8 = Bytes.make 8 'a' and msg48 = Bytes.make 48 'b' in
      check_words (name ^ ", 8 bytes") ~per_op:small (fun () -> call msg8);
      check_words (name ^ ", 48 bytes") ~per_op:large (fun () -> call msg48))
    [
      ("Subkernel.call (VMFUNC)", subkernel Sky_core.Backend.Vmfunc, 2, 18);
      ("Subkernel.call (MPK)", subkernel Sky_core.Backend.Mpk, 2, 18);
      ("Subkernel.call (syscall)", subkernel Sky_core.Backend.Syscall, 2, 18);
      ("Ipc.call (seL4)", sel4 (), 0, 0);
    ]

(* The served request through every layer: one whole [Web.run] at
   skyperf's web size (8 workers, 120 connections of 100 requests,
   seed 2), load generator and wire included, feeding each request
   through the NIC, the socket layer, skyhttpd, the mesh, the retry
   wrapper, the direct call and the KV/FS backends. Words per request
   by [Gc.minor_words]: 39.16, what its wire bytes take — the request
   payload and its copy out of the RX ring, the PUT keys and values the
   client keeps, the KV message, the call's reply and its [Ok]s, and
   the response. It was 85.7 while a request rode a packet record, a
   request record, a queue cell, options, list cells and parse copies
   and the client built a request variant and a response record; 87.3
   while the mesh copied the scheme string per routed call; and 203.5
   while the serving layers still built tuples, options and lists per
   request and a direct call allocated about 92 words. Bound = measured,
   rounded up. *)
let test_served_request () =
  let w =
    Sky_net.Web.build ~seed:2 ~cores:8 ~workers:8 ~conns:120 ~requests_per_conn:100
      ~transport:Sky_net.Web.Skybridge ()
  in
  let lg = Sky_net.Web.loadgen w in
  let before = Gc.minor_words () in
  Sky_net.Web.run w;
  let per_request =
    (Gc.minor_words () -. before) /. float_of_int (Sky_net.Loadgen.expected lg)
  in
  Alcotest.(check int) "every request answered" (Sky_net.Loadgen.expected lg)
    (Sky_net.Loadgen.responses lg);
  Alcotest.(check int) "no errors" 0 (Sky_net.Loadgen.errors lg);
  if per_request > 40.0 then
    Alcotest.failf "served request: %.2f words/request, bound 40" per_request

(* The open-loop served request: one whole open-loop [Web.run] at the
   overload workload's shape (3 workers, 32 tenants, queue cap 8, batch
   4, seed 2), the Poisson pump, admission and batched crossings
   included, without and with a wire TTL (and the server's default
   one), as skyperf's overload workload runs it. Words per offered
   arrival by [Gc.minor_words]: 30.37 and 33.58 (69.78 and 84.13 while
   requests rode records, options and list cells, a batch built op and
   reply lists and a TTL request was copied on both sides of the wire;
   69.98 while the mesh copied the scheme string per routed call, 71.8
   while the open generator built an option per queued arrival it
   injected and recorded every churned flow id in a table). Bound =
   measured, rounded up. *)
let served_open ~ttl ~bound =
  let o =
    Sky_net.Web.build_open ~seed:2 ~tenants:32 ~mean_gap:700 ~total:4000 ~workers:3
      ~admission:
        { Sky_net.Httpd.a_queue_cap = Some 8; a_default_ttl = ttl; a_batch_max = 4 }
      ?ttl ~transport:Sky_net.Web.Skybridge ()
  in
  let lg = Sky_net.Web.loadgen o in
  let before = Gc.minor_words () in
  Sky_net.Web.run o;
  let per_arrival =
    (Gc.minor_words () -. before) /. float_of_int (Sky_net.Loadgen.offered lg)
  in
  Alcotest.(check bool) "every arrival resolved" true (Sky_net.Loadgen.finished lg);
  Alcotest.(check int) "all offered" 4000 (Sky_net.Loadgen.offered lg);
  Alcotest.(check int) "zero corrupt" 0 (Sky_net.Loadgen.corrupt lg);
  if per_arrival > bound then
    Alcotest.failf "served open-loop request: %.2f words/arrival, bound %.0f" per_arrival bound

let test_served_open () = served_open ~ttl:None ~bound:31.0

(* The TTL: skyperf's overload formula, 12 x queue cap x workers x the
   saturation gap (twice the mean gap here). *)
let test_served_open_ttl () = served_open ~ttl:(Some (12 * 8 * 3 * 1400)) ~bound:34.0

(* The wire path of one request on an open connection: DMA into the RX
   ring, then [Nic.take] and the socket's demux. Only the payload's
   copy out of the ring is allocated ([n / 8 + 2] words for [n] bytes):
   flow and sequence stay in the NIC's per-queue fields. *)
let test_wire_path () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let kernel = Kernel.create machine in
  let nic = Sky_net.Nic.create kernel ~queues:1 in
  let socks = Sky_net.Socket.create kernel nic in
  let payload = Bytes.make 24 'x' in
  let flow = 1 and seq = ref 0 in
  let request () =
    incr seq;
    Sky_net.Nic.deliver nic ~flow ~seq:!seq ~payload ~at:0;
    match Sky_net.Socket.service socks ~queue:0 ~core:0 with
    | Sky_net.Socket.Request -> ()
    | _ -> Alcotest.fail "expected the request"
  in
  (* The SYN carries the first request; then one lap of the ring, so
     every descriptor and buffer frame has been touched once. *)
  Sky_net.Nic.deliver nic ~flow ~seq:0 ~payload ~at:0;
  ignore (Sky_net.Socket.service socks ~queue:0 ~core:0);
  ignore (Sky_net.Socket.service socks ~queue:0 ~core:0);
  for _ = 1 to Sky_net.Nic.ring_entries do
    request ()
  done;
  check_words "Nic.deliver + Socket.service" ~per_op:((Bytes.length payload / 8) + 2) request

(* A request rides the endpoint as an int: a push and a pop move it
   through a receiver's ring. *)
let test_endpoint () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let kernel = Kernel.create machine in
  let ep = Sky_mesh.Endpoint.create kernel ~name:"ep" ~receivers:2 in
  check_zero "Endpoint push + pop" (fun () ->
      Sky_mesh.Endpoint.push ep ~core:0 7;
      ignore (Sky_mesh.Endpoint.pop ep ~core:1 ~recv:1))

(* A blocked worker with nothing to serve while a packet waits in a peer
   ring, due far in the future: its step polls both notifications, finds
   the run unfinished and idles to the packet — with no option, tuple or
   closure on the way. *)
let test_blocked_step () =
  let w =
    Sky_net.Web.build ~seed:1 ~cores:2 ~workers:2 ~conns:4 ~requests_per_conn:1
      ~transport:Sky_net.Web.Skybridge ()
  in
  let nic = Sky_net.Web.nic w and httpd = Sky_net.Web.httpd w in
  let rec on_queue f q = if Sky_net.Nic.queue_of_flow nic f = q then f else on_queue (f + 1) q in
  let far = 1_000_000_000_000 in
  Sky_net.Nic.deliver nic ~flow:(on_queue 1 1) ~seq:0 ~payload:(Bytes.of_string "GET /kv/k")
    ~at:far;
  check_zero "Httpd.step (blocked, idling to a future packet)" (fun () ->
      match Sky_net.Httpd.step httpd ~core:0 with
      | Machine.Idle_until at when at = far -> ()
      | _ -> Alcotest.fail "expected to idle until the packet")

(* The routed call on a resolved [kv://] binding: cache-hit resolve,
   capability check, retry wrapper and the direct call, with a handler
   that allocates nothing. Bound = measured: the two [Ok] results (the
   mesh's and the direct call's) remain. It was 6 words while the
   resolution cache was probed with a copy of the scheme string, and
   49 while the span closures, the crossing token, the boxed key-table
   reads and the retry stats option were still built per call. *)
let test_mesh_call () =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let kernel = Kernel.create machine in
  let sb = Sky_core.Subkernel.init kernel in
  let mesh = Sky_mesh.Mesh.create sb in
  let kv = Kernel.spawn kernel ~name:"kv" in
  let client = Kernel.spawn kernel ~name:"client" in
  let server_id =
    Sky_core.Subkernel.register_server sb kv ~connection_count:2 (fun ~core:_ m -> m)
  in
  Sky_mesh.Mesh.register mesh ~core:0 ~uri:"kv://" ~server_id;
  ignore (Sky_mesh.Mesh.grant mesh ~core:0 ~client "kv://");
  Kernel.context_switch kernel ~core:0 client;
  let msg = Bytes.create 8 in
  check_words "Mesh.call (resolved kv://)" ~per_op:4 (fun () ->
      match Sky_mesh.Mesh.call mesh ~core:0 ~client "kv://" msg with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "routed call failed")

(* One KV lookup that hits: the probe compares keys in place and the
   hash takes no closure; what remains is the copied-out 40-byte value,
   its option and the copy's frame loop. Bound = measured. *)
let test_kv_query () =
  let machine = Machine.create ~cores:1 ~mem_mib:128 () in
  let cpu = Machine.core machine 0 in
  let kv = Sky_kvstore.Kv_server.create machine in
  let key = Bytes.of_string "f12-k3" and value = Bytes.make 40 'v' in
  Sky_kvstore.Kv_server.insert kv cpu ~key ~value;
  check_words "Kv_server.query (hit)" ~per_op:15 (fun () ->
      match Sky_kvstore.Kv_server.query kv cpu ~key with
      | Some _ -> ()
      | None -> Alcotest.fail "lookup missed")

let () =
  Alcotest.run "alloc"
    [
      ( "memory",
        [
          Alcotest.test_case "Cache.access" `Quick test_cache_access;
          Alcotest.test_case "Memsys.access" `Quick test_memsys_access;
          Alcotest.test_case "PSC probe" `Quick test_psc_probe;
          Alcotest.test_case "resident text touch" `Quick test_resident_text;
        ] );
      ( "rng",
        [
          Alcotest.test_case "Rng.int" `Quick test_rng_int;
          Alcotest.test_case "golden draws" `Quick test_rng_golden;
        ] );
      ( "translation",
        [
          Alcotest.test_case "TLB hit" `Quick test_translate_hit;
          Alcotest.test_case "TLB miss (nested walk)" `Quick test_translate_miss;
          Alcotest.test_case "guest copy" `Quick test_translate_copy;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "direct_server_call" `Quick test_direct_call;
          Alcotest.test_case "every transport" `Quick test_transports;
          Alcotest.test_case "served request" `Quick test_served_request;
          Alcotest.test_case "served open-loop request" `Quick test_served_open;
          Alcotest.test_case "served open-loop request (wire TTL)" `Quick test_served_open_ttl;
          Alcotest.test_case "wire path" `Quick test_wire_path;
          Alcotest.test_case "Endpoint push + pop" `Quick test_endpoint;
          Alcotest.test_case "blocked Httpd.step" `Quick test_blocked_step;
          Alcotest.test_case "Mesh.call" `Quick test_mesh_call;
          Alcotest.test_case "Kv_server.query" `Quick test_kv_query;
          Alcotest.test_case "notification signal/wait" `Quick test_notification_pair;
          Alcotest.test_case "run_until step" `Quick test_run_until_step;
        ] );
    ]
