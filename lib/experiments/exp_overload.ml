(** Overload: open-loop load, admission control, and chaos under
    saturation.

    The closed-loop web benchmark ({!Exp_web}) can never overload the
    server — each connection waits for its response, so offered load
    self-throttles to the service rate. This experiment measures what
    happens when it doesn't:

    {ol
    {- {b Saturation probe}: one closed-loop run fixes the service
       rate; its mean completion gap becomes the unit for offered
       load.}
    {- {b Open-loop sweep}: Poisson arrivals at 0.5×, 1×, 1.5× and 2×
       the saturation rate drive the admission-controlled server
       (bounded endpoint queues shedding typed 503s at demux, request
       TTLs propagated as backend call timeouts, batched KV crossings
       when queues run deep). Goodput, shed rate, and p50/p99/p99.9 of
       {e admitted} requests are reported per point; latency is
       measured arrival→response (coordinated-omission-free).}
    {- {b Chaos at 2×}: the same 2× point re-runs with a fault storm —
       worker crashes and hangs, KV and FS backend crashes, a
       name-service crash — layered on top of the overload. Retries
       are bounded by a token-bucket budget so recovery cannot amplify
       the overload; the gates require zero lost-or-corrupt admitted
       requests and a clean post-storm audit + fsck.}
    {- {b Tenant scale}: hundreds of short-lived client processes bind
       and call under small EPTP-list and global-binding budgets,
       driving per-process LRU eviction and whole-process slot
       eviction; evicted tenants must degrade to slowpath IPC, never
       fail.}}

    Everything is seeded; the JSON is byte-deterministic, so CI diffs
    two same-seed runs. *)

open Sky_net
open Sky_harness
module Fault = Sky_faults.Fault
module Subkernel = Sky_core.Subkernel
module Retry = Sky_core.Retry
module Histogram = Sky_trace.Histogram

let mults = [ 0.5; 1.0; 1.5; 2.0 ]

(* The one configuration, which CI gates and BENCH_overload.json
   records. *)
let seed = 42
let workers = 2
let tenants = 32 (* open-loop client flows *)
let total = 400 (* open-loop arrivals per sweep point *)
let scale_tenants = 80 (* short-lived processes in the eviction phase *)
let queue_cap = 8
let batch_max = 4

type point = {
  p_mult : float;  (** offered load as a multiple of the saturation rate *)
  p_mean_gap : int;
  p_offered : int;
  p_ok : int;  (** goodput: admitted requests answered correctly *)
  p_shed : int;  (** typed 503s (queue-full + deadline-blown) *)
  p_shed_wire : int;  (** RX-ring-full drops at the NIC *)
  p_unservable : int;  (** terminal 403s *)
  p_corrupt : int;  (** must be zero *)
  p_accounted : bool;  (** offered = ok + shed + shed_wire + errors *)
  p_goodput : float;  (** goodput requests per simulated second *)
  p_p50 : int;
  p_p99 : int;
  p_p999 : int;  (** p99.9 latency of admitted requests, cycles *)
  p_churns : int;
  p_batches : int;
  p_batched_ops : int;
  p_shed_queue : int;
  p_shed_expired : int;
  p_elapsed : int;
}

type chaos = {
  c_point : point;
  c_injected : (string * int) list;
  c_recovered : int;  (** calls that succeeded after >= 1 retry *)
  c_restarts : int;
  c_degraded : int;  (** calls served via the slowpath fallback *)
  c_lost_calls : int;  (** backend calls that gave up (surface as 503s) *)
  c_budget_withdrawn : int;
  c_budget_refused : int;
  c_audit : int;  (** post-storm mapping-audit violations — must be 0 *)
  c_fsck : int;  (** post-storm fsck problems — must be 0 *)
}

type tenant_phase = {
  t_calls : int;
  t_fast : int;  (** served by VMFUNC direct calls *)
  t_slow : int;  (** served by slowpath IPC after slot eviction *)
  t_evictions : int;  (** per-process EPTP-list LRU evictions *)
  t_slot_evictions : int;  (** global-budget whole-process retirements *)
  t_lost : int;  (** wrong or failed replies — must be zero *)
  t_live_bindings : int;
}

type result = {
  r_sat_gap : int;  (** closed-loop mean completion gap, cycles/request *)
  r_sat_tput : float;  (** closed-loop saturation throughput, req/s *)
  r_ttl : int;
  r_points : point list;
  r_chaos : chaos;
  r_tenant : tenant_phase;
}

(* ---- phase 1: saturation probe (closed loop) ---- *)

let saturation () =
  let conns = 16 * workers in
  let t =
    Web.build ~seed ~cores:workers ~conns ~requests_per_conn:6 ~workers
      ~transport:Web.Skybridge ()
  in
  Web.run t;
  let responses = Loadgen.responses (Web.loadgen t) in
  (Int.max 1 (Web.elapsed t / Int.max 1 responses), Web.throughput t)

(* ---- phases 2 & 3: the open-loop sweep ---- *)

let point_of ~mult ~mean_gap (o : _ Web.t) =
  let ol = Web.loadgen o in
  let httpd = Web.httpd o in
  let offered = Loadgen.offered ol in
  let ok = Loadgen.ok ol in
  let accounted =
    Loadgen.finished ol
    && offered
       = ok + Loadgen.shed ol + Loadgen.shed_wire ol
         + Loadgen.unservable ol + Loadgen.corrupt ol
  in
  let h = Loadgen.latencies ol in
  {
    p_mult = mult;
    p_mean_gap = mean_gap;
    p_offered = offered;
    p_ok = ok;
    p_shed = Loadgen.shed ol;
    p_shed_wire = Loadgen.shed_wire ol;
    p_unservable = Loadgen.unservable ol;
    p_corrupt = Loadgen.corrupt ol;
    p_accounted = accounted;
    p_goodput = Sky_sim.Costs.ops_per_sec ~ops:ok ~cycles:(Int.max 1 (Web.elapsed o));
    p_p50 = Histogram.p50 h;
    p_p99 = Histogram.p99 h;
    p_p999 = Histogram.p999 h;
    p_churns = Loadgen.churns ol;
    p_batches = Httpd.batches httpd;
    p_batched_ops = Httpd.batched_ops httpd;
    p_shed_queue = Httpd.shed_queue httpd;
    p_shed_expired = Httpd.shed_expired httpd;
    p_elapsed = Web.elapsed o;
  }

let build_point ~ttl ~mean_gap =
  Web.build_open ~seed ~tenants ~mean_gap ~total ~workers
    ~admission:
      {
        Httpd.a_queue_cap = Some queue_cap;
        a_default_ttl = Some ttl;
        a_batch_max = batch_max;
      }
    ~ttl ~transport:Web.Skybridge ()

(* The 2×-overload fault storm: worker crashes and a hang, both
   backends, and the name service (binding churn from the first worker
   crash invalidates the resolution caches, so the re-resolve storm
   actually reaches nameserv). Armed after build: boot and provisioning
   run fault-free. *)
let storm () =
  Fault.reset ~seed ();
  let period = Int.max 20 (total / 12) in
  Fault.arm ~budget:3 ~site:Httpd.fault_site ~kind:Fault.Crash
    (Fault.Every period);
  (* Batching shrinks the per-site hit counts (one kvstore dispatch per
     crossing), so the backend triggers sit well below the admitted
     request count. *)
  Fault.arm ~budget:1 ~site:Httpd.fault_site ~kind:Fault.Hang
    (Fault.At_hit (Int.max 30 (total / 10)));
  Fault.arm ~budget:2 ~site:"server.kvstore" ~kind:Fault.Crash
    (Fault.At_hit (Int.max 25 (total / 10)));
  Fault.arm ~budget:1 ~site:"server.xv6fs" ~kind:Fault.Crash (Fault.At_hit 3);
  Fault.arm ~budget:1 ~site:Sky_mesh.Mesh.fault_site ~kind:Fault.Crash
    (Fault.At_hit 2)

let run_chaos ~ttl ~mean_gap =
  let o = build_point ~ttl ~mean_gap in
  storm ();
  Web.run o;
  Fault.disable ();
  let { Web.sb; mesh; budget } = Web.sky o in
  let st = Sky_mesh.Mesh.retry_stats mesh in
  let fsck = Sky_xv6fs.Fsck.check (Web.fs o) ~core:0 in
  {
    c_point = point_of ~mult:2.0 ~mean_gap o;
    c_injected = Fault.fired_counts ();
    c_recovered = st.Retry.retried_ok;
    c_restarts = st.Retry.restarts + Httpd.restarts (Web.httpd o);
    c_degraded = st.Retry.degraded;
    c_lost_calls = st.Retry.lost;
    c_budget_withdrawn = Retry.budget_withdrawn budget;
    c_budget_refused = Retry.budget_refused budget;
    c_audit = List.length (Subkernel.audit sb);
    c_fsck = List.length fsck;
  }

(* ---- phase 4: tenant scale (EPTP + global binding budgets) ---- *)

let tenant_code = Sky_isa.Encode.encode_all [ Sky_isa.Insn.Nop; Sky_isa.Insn.Ret ]

let run_tenants () =
  let open Sky_ukernel in
  let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:256 () in
  let k = Kernel.create machine in
  (* max_eptp 2: slot 0 (own EPT) + 1 binding fit, so a tenant touching
     its 2nd and 3rd service thrashes the per-process LRU. max_bindings
     caps live fast-path bindings machine-wide: once the fleet exceeds
     it, the least-recently-calling tenants are retired to slowpath. *)
  let sb = Subkernel.init ~seed ~max_eptp:2 ~max_bindings:24 k in
  let mk_server name tag =
    let p = Kernel.spawn k ~name in
    ignore (Kernel.map_code k p tenant_code);
    Subkernel.register_server sb p ~connection_count:2 (fun ~core:_ msg ->
        let r = Bytes.copy msg in
        Bytes.set r 0 tag;
        r)
  in
  let sids = [ mk_server "svc0" 'a'; mk_server "svc1" 'b'; mk_server "svc2" 'c' ] in
  let tags = [ 'a'; 'b'; 'c' ] in
  let calls = ref 0 and fast = ref 0 and slow = ref 0 and lost = ref 0 in
  let do_call p i sid tag =
    incr calls;
    let msg = Bytes.of_string (Printf.sprintf "_t%d-s%d" i sid) in
    let want =
      let w = Bytes.copy msg in
      Bytes.set w 0 tag;
      w
    in
    let degraded0 = Subkernel.degraded_calls sb in
    match Subkernel.call sb ~core:0 ~client:p ~server_id:sid msg with
    | Ok r when not (Bytes.equal r want) -> incr lost
    | Ok _ -> if Subkernel.degraded_calls sb > degraded0 then incr slow else incr fast
    | Error _ -> incr lost
  in
  let procs =
    Array.init scale_tenants (fun i ->
        let p = Kernel.spawn k ~name:(Printf.sprintf "tenant%d" i) in
        ignore (Kernel.map_code k p tenant_code);
        List.iter
          (fun sid -> Subkernel.register_client_to_server sb p ~server_id:sid)
          sids;
        Kernel.context_switch k ~core:0 p;
        (* A short-lived tenant's whole life: one call per service. *)
        List.iter2 (fun sid tag -> do_call p i sid tag) sids tags;
        p)
  in
  (* Revisit a sample of early tenants: their bindings were retired by
     the global budget while they were idle, so the calls must come back
     correct via slowpath IPC — degraded, not failed. *)
  let i = ref 0 in
  while !i < scale_tenants do
    let p = procs.(!i) in
    Kernel.context_switch k ~core:0 p;
    do_call p !i (List.hd sids) (List.hd tags);
    i := !i + 16
  done;
  {
    t_calls = !calls;
    t_fast = !fast;
    t_slow = !slow;
    t_evictions = Subkernel.evictions sb;
    t_slot_evictions = Subkernel.slot_evictions sb;
    t_lost = !lost;
    t_live_bindings = Subkernel.live_bindings sb;
  }

(* ---- the full experiment ---- *)

let run_overload () =
  let sat_gap, sat_tput = saturation () in
  (* TTL: generous against honest queueing (the per-receiver queue bound
     times the per-worker service time, with slack for batching and
     retry backoff), tight against unbounded backlog. *)
  let ttl = 12 * queue_cap * workers * sat_gap in
  let measure mult =
    let mean_gap = Int.max 1 (int_of_float (float_of_int sat_gap /. mult)) in
    let o = build_point ~ttl ~mean_gap in
    Web.run o;
    point_of ~mult ~mean_gap o
  in
  let points = List.map measure mults in
  let chaos = run_chaos ~ttl ~mean_gap:(Int.max 1 (sat_gap / 2)) in
  let tenant = run_tenants () in
  {
    r_sat_gap = sat_gap;
    r_sat_tput = sat_tput;
    r_ttl = ttl;
    r_points = points;
    r_chaos = chaos;
    r_tenant = tenant;
  }

(* ---- acceptance gates ---- *)

let all_points r = r.r_chaos.c_point :: r.r_points

(* Nothing vanished and nothing lied: every offered request resolved
   into exactly one bucket, and no admitted request was lost or
   corrupted — under overload AND under the storm. *)
let zero_lost r =
  List.for_all (fun p -> p.p_accounted && p.p_corrupt = 0) (all_points r)
  && r.r_tenant.t_lost = 0

let goodput_at mult r =
  match List.find_opt (fun p -> p.p_mult = mult) r.r_points with
  | Some p -> p.p_goodput
  | None -> 0.0

(* Admission control holds the line: goodput at 2× offered load stays a
   healthy fraction of the saturation throughput instead of collapsing
   under queueing and retry amplification. *)
let goodput_ratio r = goodput_at 2.0 r /. Float.max 1e-9 r.r_sat_tput

let overload_sheds r =
  match List.find_opt (fun p -> p.p_mult = 2.0) r.r_points with
  | Some p -> p.p_shed + p.p_shed_wire > 0
  | None -> false

let chaos_active r =
  List.fold_left (fun a (_, n) -> a + n) 0 r.r_chaos.c_injected >= 3
  && r.r_chaos.c_restarts > 0

let chaos_clean r = r.r_chaos.c_audit = 0 && r.r_chaos.c_fsck = 0

let tenants_evicted r =
  r.r_tenant.t_evictions > 0
  && r.r_tenant.t_slot_evictions > 0
  && r.r_tenant.t_slow > 0
  && r.r_tenant.t_fast > 0

(* p99.9 of admitted requests at 2x offered load. *)
let p999_2x r =
  match List.find_opt (fun p -> p.p_mult = 2.0) r.r_points with
  | Some p -> p.p_p999
  | None -> max_int

(* The structural gates, the goodput floor (budgeted, 50 % without a
   budget) and the p99.9 regression budget. *)
let checks budgets r =
  let floor =
    match Budget.find budgets ~section:"overload" ~key:"goodput_floor_pct" with
    | Some pct -> float_of_int pct /. 100.0
    | None -> 0.5
  in
  [
    ("zero_lost", zero_lost r);
    ( Printf.sprintf "goodput_ratio (%.3f < floor %.2f)" (goodput_ratio r) floor,
      goodput_ratio r >= floor );
    ("overload_sheds", overload_sheds r);
    ("chaos_active", chaos_active r);
    ("chaos_clean", chaos_clean r);
    ("tenants_evicted", tenants_evicted r);
    Budget.ceiling budgets ~section:"overload" ~key:"p999_cycles" (p999_2x r);
  ]

(* ---- rendering ---- *)

let row ?(label = "") p =
  [
    (if label = "" then Printf.sprintf "%.1fx" p.p_mult else label);
    string_of_int p.p_offered;
    string_of_int p.p_ok;
    string_of_int (p.p_shed + p.p_shed_wire);
    string_of_int (p.p_unservable + p.p_corrupt);
    Tbl.fmt_ops p.p_goodput;
    Tbl.fmt_int p.p_p50;
    Tbl.fmt_int p.p_p99;
    Tbl.fmt_int p.p_p999;
    string_of_int p.p_batches;
  ]

let table r =
  Tbl.make
    ~title:
      (Printf.sprintf
         "Overload: open-loop load vs admission control (%d workers, \
          saturation %s req/s)"
         workers (Tbl.fmt_ops r.r_sat_tput))
    ~header:
      [
        "offered"; "arrivals"; "goodput"; "shed"; "errors"; "good req/s";
        "p50"; "p99"; "p99.9"; "batches";
      ]
    ~notes:
      [
        Printf.sprintf
          "admission: queue cap %d/receiver, TTL %d cycles, batch <= %d; \
           latency = arrival to response of admitted requests"
          queue_cap r.r_ttl batch_max;
        Printf.sprintf
          "chaos row: %d faults injected at 2x load; %d retries recovered, \
           %d restarts, budget %d withdrawn / %d refused, audit %d, fsck %d"
          (List.fold_left (fun a (_, n) -> a + n) 0 r.r_chaos.c_injected)
          r.r_chaos.c_recovered r.r_chaos.c_restarts
          r.r_chaos.c_budget_withdrawn r.r_chaos.c_budget_refused
          r.r_chaos.c_audit r.r_chaos.c_fsck;
        Printf.sprintf
          "tenant scale: %d procs, %d calls, %d fast / %d slowpath, %d LRU + \
           %d slot evictions, %d lost"
          scale_tenants r.r_tenant.t_calls r.r_tenant.t_fast
          r.r_tenant.t_slow r.r_tenant.t_evictions
          r.r_tenant.t_slot_evictions r.r_tenant.t_lost;
      ]
    (List.map row r.r_points @ [ row ~label:"2.0x+chaos" r.r_chaos.c_point ])

let to_json r =
  let open Sky_trace.Json in
  let point p =
    Obj
      [
        ("offered_mult", Float p.p_mult);
        ("mean_gap_cycles", Int p.p_mean_gap);
        ("offered", Int p.p_offered);
        ("goodput", Int p.p_ok);
        ("shed", Int p.p_shed);
        ("shed_wire", Int p.p_shed_wire);
        ("shed_queue", Int p.p_shed_queue);
        ("shed_expired", Int p.p_shed_expired);
        ("unservable", Int p.p_unservable);
        ("corrupt", Int p.p_corrupt);
        ("accounted", Bool p.p_accounted);
        ("goodput_req_per_sec", Float p.p_goodput);
        ("p50_cycles", Int p.p_p50);
        ("p99_cycles", Int p.p_p99);
        ("p999_cycles", Int p.p_p999);
        ("conn_churns", Int p.p_churns);
        ("batches", Int p.p_batches);
        ("batched_ops", Int p.p_batched_ops);
        ("elapsed_cycles", Int p.p_elapsed);
      ]
  in
  to_string
    (Obj
       [
         ("bench", String "overload");
         ("seed", Int seed);
         ("workers", Int workers);
         ("tenants", Int tenants);
         ("arrivals", Int total);
         ("saturation_gap_cycles", Int r.r_sat_gap);
         ("saturation_req_per_sec", Float r.r_sat_tput);
         ("ttl_cycles", Int r.r_ttl);
         ("queue_cap", Int queue_cap);
         ("batch_max", Int batch_max);
         ("points", List (List.map point r.r_points));
         ( "chaos",
           Obj
             [
               ("point", point r.r_chaos.c_point);
               ( "injected",
                 Obj
                   (List.map
                      (fun (site, n) -> (site, Int n))
                      r.r_chaos.c_injected) );
               ("recovered", Int r.r_chaos.c_recovered);
               ("restarts", Int r.r_chaos.c_restarts);
               ("degraded", Int r.r_chaos.c_degraded);
               ("lost_calls", Int r.r_chaos.c_lost_calls);
               ("budget_withdrawn", Int r.r_chaos.c_budget_withdrawn);
               ("budget_refused", Int r.r_chaos.c_budget_refused);
               ("audit_violations", Int r.r_chaos.c_audit);
               ("fsck_problems", Int r.r_chaos.c_fsck);
             ] );
         ( "tenant_scale",
           Obj
             [
               ("tenants", Int scale_tenants);
               ("calls", Int r.r_tenant.t_calls);
               ("fast", Int r.r_tenant.t_fast);
               ("slowpath", Int r.r_tenant.t_slow);
               ("eptp_evictions", Int r.r_tenant.t_evictions);
               ("slot_evictions", Int r.r_tenant.t_slot_evictions);
               ("lost", Int r.r_tenant.t_lost);
               ("live_bindings", Int r.r_tenant.t_live_bindings);
             ] );
         ("goodput_ratio_2x", Float (goodput_ratio r));
         ("zero_lost", Bool (zero_lost r));
         ("overload_sheds", Bool (overload_sheds r));
         ("chaos_active", Bool (chaos_active r));
         ("chaos_clean", Bool (chaos_clean r));
         ("tenants_evicted", Bool (tenants_evicted r));
       ])

let outcome budgets r =
  Outcome.make ~checks:(checks budgets r) (table r) (to_json r)

let run budgets = outcome budgets (run_overload ())
