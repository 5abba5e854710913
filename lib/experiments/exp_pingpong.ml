(** Pingpong: the perf-gate experiment for the translation-acceleration
    layer.

    A client with a deliberately TLB-straining working set (larger than
    the 64-entry dTLB) pingpongs 8-byte messages over SkyBridge direct
    calls to a server that touches a few pages of its own — §2.1.2's
    indirect-cost scenario, where every call's real price includes the
    TLB refills the crossing provokes. The same workload is measured
    twice: once with the paging-structure caches and EPT walk cache
    enabled, once with {!Sky_sim.Accel} disabled (the cache-free
    reference walker). The gap is exactly the cycles the acceleration
    structures save; `skybench run pingpong` gates cycles-per-call
    against bench/budgets.json and CI diffs two same-seed runs for
    determinism. *)

open Sky_ukernel
open Sky_harness

type result = {
  cycles_per_call : int;  (** acceleration on (the shipped configuration) *)
  cycles_per_call_noaccel : int;  (** reference walker, caches off *)
  walk_cycles_per_call : int;  (** TLB-refill cycles per call, accel on *)
  psc_hits : int;
  psc_misses : int;
  ept_wc_hits : int;
  ept_wc_misses : int;
}

let iters_warm = 50
let iters = 1000
let ws_pages = 96

(* One measured configuration: build a fresh machine, warm up, run
   [iters] calls, hand the measured window to [k]. Shared between the
   accel-on/off measurement below and the cross-backend matrix, which
   wants the Subkernel's cycle breakdown instead of the PMU counters. *)
let with_rig k =
  let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:128 () in
  let kernel = Kernel.create machine in
  let sb = Sky_core.Subkernel.init kernel in
  let client = Kernel.spawn kernel ~name:"client" in
  let server = Kernel.spawn kernel ~name:"server" in
  let vcpu = Kernel.vcpu kernel ~core:0 in
  let mem = Kernel.mem kernel in
  let client_ws = Kernel.map_anon kernel client (ws_pages * 4096) in
  let server_ws = Kernel.map_anon kernel server (4 * 4096) in
  let handler ~core:_ m =
    for page = 0 to 3 do
      ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va:(server_ws + (page * 4096)))
    done;
    m
  in
  let sid = Sky_core.Subkernel.register_server sb server handler in
  Sky_core.Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch kernel ~core:0 client;
  Sky_mmu.Vcpu.set_mode vcpu Sky_mmu.Vcpu.User;
  let cpu = Kernel.cpu kernel ~core:0 in
  let msg = Bytes.create 8 in
  let one () =
    for page = 0 to ws_pages - 1 do
      ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va:(client_ws + (page * 4096)))
    done;
    ignore (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg)
  in
  for _ = 1 to iters_warm do
    one ()
  done;
  k ~cpu ~sb ~one

let measure () =
  with_rig @@ fun ~cpu ~sb:_ ~one ->
  let pmu = Sky_sim.Cpu.pmu cpu in
  let read ev = Sky_sim.Pmu.read pmu ev in
  let t0 = Sky_sim.Cpu.cycles cpu in
  let walk0 = read Sky_sim.Pmu.Walk_cycles in
  let psc_h0 = read Sky_sim.Pmu.Psc_hit and psc_m0 = read Sky_sim.Pmu.Psc_miss in
  let wc_h0 = read Sky_sim.Pmu.Ept_walk_cache_hit
  and wc_m0 = read Sky_sim.Pmu.Ept_walk_cache_miss in
  for _ = 1 to iters do
    one ()
  done;
  {
    cycles_per_call = (Sky_sim.Cpu.cycles cpu - t0) / iters;
    cycles_per_call_noaccel = 0 (* filled by [run_result] *);
    walk_cycles_per_call = (read Sky_sim.Pmu.Walk_cycles - walk0) / iters;
    psc_hits = read Sky_sim.Pmu.Psc_hit - psc_h0;
    psc_misses = read Sky_sim.Pmu.Psc_miss - psc_m0;
    ept_wc_hits = read Sky_sim.Pmu.Ept_walk_cache_hit - wc_h0;
    ept_wc_misses = read Sky_sim.Pmu.Ept_walk_cache_miss - wc_m0;
  }

(* The cross-backend view of the same measured window: total per-call
   cycles plus the Subkernel's Figure-7 cycle attribution, so the matrix
   can show where each mechanism spends its crossing (vmfunc-category =
   the architectural switch legs, VMFUNC or WRPKRU; syscall-category =
   kernel round trips, the filtered-syscall backend's whole path). *)
type full = {
  f_backend : Sky_core.Backend.kind;
  f_cycles_per_call : int;
  f_switch_per_call : int;  (** vmfunc-category breakdown cycles / call *)
  f_kernel_per_call : int;  (** syscall-category breakdown cycles / call *)
  f_other_per_call : int;
  f_copy_per_call : int;
}

let measure_full () =
  with_rig @@ fun ~cpu ~sb ~one ->
  let module B = Sky_kernels.Breakdown in
  let snap () = B.scale (Sky_core.Subkernel.stats sb) 1 in
  let s0 = snap () in
  let t0 = Sky_sim.Cpu.cycles cpu in
  for _ = 1 to iters do
    one ()
  done;
  let s1 = snap () in
  {
    f_backend = Sky_core.Subkernel.backend sb;
    f_cycles_per_call = (Sky_sim.Cpu.cycles cpu - t0) / iters;
    f_switch_per_call = (s1.B.vmfunc - s0.B.vmfunc) / iters;
    f_kernel_per_call = (s1.B.syscall - s0.B.syscall) / iters;
    f_other_per_call = (s1.B.other - s0.B.other) / iters;
    f_copy_per_call = (s1.B.copy - s0.B.copy) / iters;
  }

let with_accel enabled f =
  let saved = Sky_sim.Accel.is_enabled () in
  Sky_sim.Accel.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Sky_sim.Accel.set_enabled saved) f

let run_result () =
  let on_ = with_accel true measure in
  let off = with_accel false measure in
  { on_ with cycles_per_call_noaccel = off.cycles_per_call }

let pct_hit h m = if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m)

let table r =
  Tbl.make
    ~title:
      "Pingpong: SkyBridge direct call under TLB pressure (96-page client \
       working set, 1000 calls)"
    ~header:[ "metric"; "value" ]
    ~notes:
      [
        "'accel off' disables PSCs and the EPT walk cache (the cache-free \
         reference walker)";
        "hit rates are over the measured window, acceleration on";
      ]
    [
      [ "cycles/call (accel on)"; Tbl.fmt_int r.cycles_per_call ];
      [ "cycles/call (accel off)"; Tbl.fmt_int r.cycles_per_call_noaccel ];
      [ "walk cycles/call (accel on)"; Tbl.fmt_int r.walk_cycles_per_call ];
      [ "psc hit rate %"; Printf.sprintf "%.1f" (pct_hit r.psc_hits r.psc_misses) ];
      [
        "ept walk cache hit rate %";
        Printf.sprintf "%.1f" (pct_hit r.ept_wc_hits r.ept_wc_misses);
      ];
    ]

let to_json r =
  Sky_trace.Json.(
    to_string
      (Obj
         [
           ("experiment", String "pingpong");
           ("cycles_per_call", Int r.cycles_per_call);
           ("cycles_per_call_noaccel", Int r.cycles_per_call_noaccel);
           ("walk_cycles_per_call", Int r.walk_cycles_per_call);
           ("psc_hits", Int r.psc_hits);
           ("psc_misses", Int r.psc_misses);
           ("ept_wc_hits", Int r.ept_wc_hits);
           ("ept_wc_misses", Int r.ept_wc_misses);
         ]))

let outcome budgets r =
  Outcome.make
    ~checks:
      [
        ("accel_pays", r.cycles_per_call < r.cycles_per_call_noaccel);
        Budget.ceiling budgets ~section:"pingpong" ~key:"cycles_per_call"
          r.cycles_per_call;
      ]
    (table r) (to_json r)

let run budgets = outcome budgets (run_result ())
