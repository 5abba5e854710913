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
  let open Sky_trace.Json in
  Obj
    [
      (* offered load as a multiple of the saturation rate *)
      ("offered_mult", Float mult);
      ("mean_gap_cycles", Int mean_gap);
      ("offered", Int offered);
      (* admitted requests answered correctly *)
      ("goodput", Int ok);
      (* typed 503s (queue-full + deadline-blown) and RX-ring-full drops *)
      ("shed", Int (Loadgen.shed ol));
      ("shed_wire", Int (Loadgen.shed_wire ol));
      ("shed_queue", Int (Httpd.shed_queue httpd));
      ("shed_expired", Int (Httpd.shed_expired httpd));
      ("unservable", Int (Loadgen.unservable ol));
      ("corrupt", Int (Loadgen.corrupt ol));
      ("accounted", Bool accounted);
      ( "goodput_req_per_sec",
        Float (Sky_sim.Costs.ops_per_sec ~ops:ok ~cycles:(Int.max 1 (Web.elapsed o))) );
      (* latency of admitted requests, arrival to response *)
      ("p50_cycles", Int (Histogram.p50 h));
      ("p99_cycles", Int (Histogram.p99 h));
      ("p999_cycles", Int (Histogram.p999 h));
      ("conn_churns", Int (Loadgen.churns ol));
      ("batches", Int (Httpd.batches httpd));
      ("batched_ops", Int (Httpd.batched_ops httpd));
      ("elapsed_cycles", Int (Web.elapsed o));
    ]

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
  let open Sky_trace.Json in
  Obj
    [
      ("point", point_of ~mult:2.0 ~mean_gap o);
      ("injected", Exp_chaos.injected ());
      (* calls that succeeded after >= 1 retry *)
      ("recovered", Int st.Retry.retried_ok);
      ("restarts", Int (st.Retry.restarts + Httpd.restarts (Web.httpd o)));
      (* calls served via the slowpath fallback *)
      ("degraded", Int st.Retry.degraded);
      (* backend calls that gave up (surface as 503s) *)
      ("lost_calls", Int st.Retry.lost);
      ("budget_withdrawn", Int (Retry.budget_withdrawn budget));
      ("budget_refused", Int (Retry.budget_refused budget));
      ("audit_violations", Int (List.length (Subkernel.audit sb)));
      ("fsck_problems", Int (List.length fsck));
    ]

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
    match Subkernel.call sb ~core:0 ~client:p ~server_id:sid ~timeout:(-1) msg with
    | r when not (Bytes.equal r want) -> incr lost
    | _ -> if Subkernel.degraded_calls sb > degraded0 then incr slow else incr fast
    | exception Subkernel.Failed _ -> incr lost
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
  Sky_trace.Json.(
    Obj
      [
        ("tenants", Int scale_tenants);
        ("calls", Int !calls);
        (* served by VMFUNC direct calls, and by slowpath IPC after slot
           eviction *)
        ("fast", Int !fast);
        ("slowpath", Int !slow);
        (* per-process EPTP-list LRU evictions, and global-budget
           whole-process retirements *)
        ("eptp_evictions", Int (Subkernel.evictions sb));
        ("slot_evictions", Int (Subkernel.slot_evictions sb));
        (* wrong or failed replies *)
        ("lost", Int !lost);
        ("live_bindings", Int (Subkernel.live_bindings sb));
      ])

(* ---- acceptance gates: predicates over the payload ---- *)

let points r = Outcome.list r "points"
let point_2x r = List.find (fun p -> Outcome.float p "offered_mult" = 2.0) (points r)
let chaos r = Outcome.field r "chaos"
let tenant_scale r = Outcome.field r "tenant_scale"

(* Nothing vanished and nothing lied: every offered request resolved
   into exactly one bucket, and no admitted request was lost or
   corrupted — under overload AND under the storm. *)
let zero_lost r =
  List.for_all
    (fun p -> Outcome.(bool p "accounted" && int p "corrupt" = 0))
    (Outcome.field (chaos r) "point" :: points r)
  && Outcome.int (tenant_scale r) "lost" = 0

(* Admission control holds the line: goodput at 2× offered load stays a
   healthy fraction of the saturation throughput instead of collapsing
   under queueing and retry amplification. *)
let goodput_ratio r =
  Outcome.float (point_2x r) "goodput_req_per_sec"
  /. Float.max 1e-9 (Outcome.float r "saturation_req_per_sec")

let overload_sheds r = Outcome.(int (point_2x r) "shed" + int (point_2x r) "shed_wire" > 0)

let chaos_active r =
  Exp_chaos.total (chaos r) "injected" >= 3 && Outcome.int (chaos r) "restarts" > 0

let chaos_clean r =
  Outcome.(int (chaos r) "audit_violations" = 0 && int (chaos r) "fsck_problems" = 0)

let tenants_evicted r =
  let t = tenant_scale r in
  Outcome.(
    int t "eptp_evictions" > 0 && int t "slot_evictions" > 0 && int t "slowpath" > 0
    && int t "fast" > 0)

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
  let open Sky_trace.Json in
  let fields =
    [
      ("bench", String "overload");
      ("seed", Int seed);
      ("workers", Int workers);
      ("tenants", Int tenants);
      ("arrivals", Int total);
      (* closed-loop mean completion gap, cycles/request *)
      ("saturation_gap_cycles", Int sat_gap);
      ("saturation_req_per_sec", Float sat_tput);
      ("ttl_cycles", Int ttl);
      ("queue_cap", Int queue_cap);
      ("batch_max", Int batch_max);
      ("points", List points);
      ("chaos", chaos);
      ("tenant_scale", tenant);
    ]
  in
  let r = Obj fields in
  Obj
    (fields
    @ [
        ("goodput_ratio_2x", Float (goodput_ratio r));
        ("zero_lost", Bool (zero_lost r));
        ("overload_sheds", Bool (overload_sheds r));
        ("chaos_active", Bool (chaos_active r));
        ("chaos_clean", Bool (chaos_clean r));
        ("tenants_evicted", Bool (tenants_evicted r));
      ])

(* The structural gates, the budgeted goodput floor and the ambient
   backend's p99.9 regression budget at 2x. *)
let checks budgets r =
  [
    ("zero_lost", zero_lost r);
    Budget.floor budgets ~section:"overload" ~key:"goodput_floor_pct" (goodput_ratio r);
    ("overload_sheds", overload_sheds r);
    ("chaos_active", chaos_active r);
    ("chaos_clean", chaos_clean r);
    ("tenants_evicted", tenants_evicted r);
    Budget.ceiling budgets ~section:"overload" ~key:"p999_cycles"
      ~backend:Sky_core.Backend.(name (get_default ()))
      (Outcome.int (point_2x r) "p999_cycles");
  ]

(* ---- rendering ---- *)

let row ?(label = "") p =
  let n key = string_of_int (Outcome.int p key) in
  Outcome.
    [
      (if label = "" then Printf.sprintf "%.1fx" (float p "offered_mult") else label);
      n "offered";
      n "goodput";
      string_of_int (int p "shed" + int p "shed_wire");
      string_of_int (int p "unservable" + int p "corrupt");
      Tbl.fmt_ops (float p "goodput_req_per_sec");
      Tbl.fmt_int (int p "p50_cycles");
      Tbl.fmt_int (int p "p99_cycles");
      Tbl.fmt_int (int p "p999_cycles");
      n "batches";
    ]

let table r =
  let c = chaos r and t = tenant_scale r in
  Tbl.make
    ~title:
      (Printf.sprintf
         "Overload: open-loop load vs admission control (%d workers, \
          saturation %s req/s)"
         workers
         (Tbl.fmt_ops (Outcome.float r "saturation_req_per_sec")))
    ~header:
      [
        "offered"; "arrivals"; "goodput"; "shed"; "errors"; "good req/s";
        "p50"; "p99"; "p99.9"; "batches";
      ]
    ~notes:
      Outcome.
        [
          Printf.sprintf
            "admission: queue cap %d/receiver, TTL %d cycles, batch <= %d; \
             latency = arrival to response of admitted requests"
            queue_cap (int r "ttl_cycles") batch_max;
          Printf.sprintf
            "chaos row: %d faults injected at 2x load; %d retries recovered, \
             %d restarts, budget %d withdrawn / %d refused, audit %d, fsck %d"
            (Exp_chaos.total c "injected") (int c "recovered") (int c "restarts")
            (int c "budget_withdrawn") (int c "budget_refused")
            (int c "audit_violations") (int c "fsck_problems");
          Printf.sprintf
            "tenant scale: %d procs, %d calls, %d fast / %d slowpath, %d LRU + \
             %d slot evictions, %d lost"
            scale_tenants (int t "calls") (int t "fast") (int t "slowpath")
            (int t "eptp_evictions") (int t "slot_evictions") (int t "lost");
        ]
    (List.map row (points r) @ [ row ~label:"2.0x+chaos" (Outcome.field c "point") ])

let outcome budgets r = Outcome.make ~checks:(checks budgets r) (table r) r
let run budgets = outcome budgets (run_overload ())
