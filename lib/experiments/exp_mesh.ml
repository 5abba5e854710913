(** The composed service-mesh scenario (ROADMAP item 5): the whole
    serving fabric addressed purely by URI.

    load generator → NIC (2 RX rings) → 4 skyhttpd workers fanned out
    over one multi-receiver {!Sky_mesh.Endpoint} → KV store + xv6fs +
    blockdev, every worker→backend hop routed by the capability mesh
    ([kv://], [fs://], with the FS mounted over [blk://]) — no flat
    server id reaches a worker.

    A supervisor core drives two control-plane events mid-run:

    - {b hot upgrade} (make-before-break): once a third of the load is
      served, a second-generation KV server sharing the same store is
      registered, every worker is granted a capability on it, the
      [kv://] name is re-registered to the new server id (one epoch
      bump stales every per-core cache at once), and only then are the
      v1 grants revoked — zero requests lost, both generations serve
      traffic;
    - {b least privilege}: at half load, one worker's [fs://] grant is
      revoked. Its next file request is denied at the capability check
      — the worker survives and bounces the request to a privileged
      peer ({!Sky_net.Httpd.Denied}), degradation instead of crash.

    `skybench run mesh` gates on: every request served and content-checked,
    fan-out across all four workers (with work steals — two of them own
    no RX ring at all), both KV generations served traffic, denials
    observed and absorbed, and the mesh + subkernel audits clean. The
    JSON is byte-deterministic: CI diffs two same-seed runs. *)

open Sky_sim
open Sky_ukernel
open Sky_xv6fs
open Sky_harness
module Kv_server = Sky_kvstore.Kv_server
module Subkernel = Sky_core.Subkernel
module Retry = Sky_core.Retry
module Mesh = Sky_mesh.Mesh
module Graph = Sky_mesh.Service_graph
module Web = Sky_net.Web
module Httpd = Sky_net.Httpd
module Nic = Sky_net.Nic
module Loadgen = Sky_net.Loadgen

let workers = 4
let queues = 2
let conns = 24
let requests_per_conn = 8

type result = {
  m_seed : int;
  m_expected : int;
  m_responses : int;
  m_errors : int;
  m_served : int;
  m_per_worker : int list;
  m_steals : int;
  m_denials : int;  (** requests bounced off the revoked worker *)
  m_kv_v1 : int;  (** KV calls served by the v1 server *)
  m_kv_v2 : int;  (** ... and by the hot-upgraded v2 server *)
  m_upgrade_at : int;  (** requests served when the upgrade committed *)
  m_revoke_at : int;  (** ... when the fs:// grant was revoked *)
  m_grants_retired : int;
  m_resolves : int;  (** name-service wire round trips *)
  m_cache_hits : int;
  m_epoch : int;
  m_restarts : int;
  m_attempts : int;
  m_recovered : int;
  m_degraded : int;
  m_lost : int;  (** retry-budget losses + unanswered requests *)
  m_forced_returns : int;
  m_sec_dropped : int;  (** security-ring overflow drops *)
  m_audit : int;  (** audit violations outside the [mesh] pass *)
  m_mesh_audit : int;  (** [mesh] pass violations *)
  m_graph_edges : int;  (** sharing-graph edges at end of run *)
  m_graph_added : int;  (** edges the scenario added (vs pre-storm) *)
  m_graph_removed : int;  (** ... and removed *)
  m_graph_stale : int;
      (** added writable edges no live shared buffer justifies — the
          Isoflow differential gate: crash → restart → rebind and the
          two control-plane events must leave no stale mapping *)
  m_fsck : int;
  m_elapsed : int;
  m_tput : float;
}

(* The supervisor polls the served counter between quanta; cheap, and
   keeps its virtual clock moving with the workers. *)
let supervisor_poll_cycles = 400

let run_mesh ?(seed = 7) ?(storm = fun () -> ()) () =
  let machine = Machine.create ~cores:6 ~mem_mib:128 () in
  let kernel = Kernel.create machine in
  let sb = Subkernel.init ~seed kernel in
  let mesh = Mesh.create sb in
  (* Backends: blockdev → xv6fs, plus two generations of the KV server
     over one shared store (state survives the hot upgrade). *)
  let kv = Kv_server.create machine in
  let kv_v1_calls = ref 0 and kv_v2_calls = ref 0 in
  let counted counter h ~core msg =
    incr counter;
    h ~core msg
  in
  let ramdisk = Fs_tier.format kernel ~blocks:4096 in
  let disk_proc = Kernel.spawn kernel ~name:"blockdev" in
  let fs_proc = Kernel.spawn kernel ~name:"xv6fs" in
  let kv1_proc = Kernel.spawn kernel ~name:"kvstore" in
  let kv2_proc = Kernel.spawn kernel ~name:"kvstore-v2" in
  let worker_procs = Array.init workers (fun _ -> Kernel.spawn kernel ~name:"httpd") in
  let graph = Graph.create kernel (Graph.Skybridge (sb, Graph.Mesh mesh)) in
  let tier = Fs_tier.create graph kernel ramdisk ~disk:disk_proc ~fs:fs_proc in
  let kv1 =
    Graph.serve graph ~connections:6 kv1_proc (counted kv_v1_calls (Web.kv_backend kernel kv))
  in
  (* v2 exists from boot but owns no URI until the upgrade commits. *)
  let kv2 =
    Graph.serve graph ~connections:6 kv2_proc (counted kv_v2_calls (Web.kv_backend kernel kv))
  in
  Graph.name graph ~core:0 ~uri:"fs://" (Fs_tier.server tier);
  Graph.name graph ~core:0 ~uri:"kv://" kv1;
  let files = Web.provision_files (Fs_tier.fs tier) ~seed in
  let nic = Nic.create kernel ~queues in
  let lg =
    Loadgen.create nic ~seed ~mix:Loadgen.default_mix ~conns ~requests_per_conn
      ~rtt:Web.rtt ~files Loadgen.Closed
  in
  (* No preload and no static-file cache: every Fs_get takes the
     capability-checked backend path, so revocation is actually felt. *)
  let httpd =
    Httpd.create ~preload:[] ~file_cache:false kernel nic
      ~workers:
        (Array.map
           (fun p -> (p, Web.bind graph kernel ~tier ~kv:kv1 ~deadline:(fun ~core:_ -> -1) p))
           worker_procs)
      ~queue_done:(fun ~queue -> Loadgen.queue_done lg ~queue)
  in
  (* ---- the supervisor's two control-plane events ---- *)
  let expected = conns * requests_per_conn in
  let upgrade_threshold = expected / 3 and revoke_threshold = expected / 2 in
  let upgrade_at = ref 0 and revoke_at = ref 0 and grants_retired = ref 0 in
  (* The workers' grants on [uri], in worker order. *)
  let grants_on uri = List.filter (fun g -> Mesh.grant_uri g = uri) (Mesh.grants mesh) in
  let retire ~core g =
    Mesh.revoke_grant mesh ~core g;
    incr grants_retired
  in
  let do_upgrade ~core =
    (* Make before break: grant v2 to everyone, flip the name, and only
       then tear the v1 capability tree down. *)
    let v1 = grants_on "kv://" in
    Graph.name graph ~core ~uri:"kv2://" kv2;
    Array.iter
      (fun p -> ignore (Mesh.grant mesh ~core ~client:p "kv2://"))
      worker_procs;
    Graph.name graph ~core ~uri:"kv://" kv2;
    Mesh.unregister mesh ~core ~uri:"kv2://";
    List.iter (retire ~core) v1;
    upgrade_at := Httpd.served httpd
  in
  let do_revoke ~core =
    let last = worker_procs.(workers - 1).Proc.pid in
    List.iter (retire ~core) (List.filter (fun g -> Mesh.grant_pid g = last) (grants_on "fs://"));
    revoke_at := Httpd.served httpd
  in
  let sup_state = ref 0 in
  let sup_step ~core =
    Cpu.charge (Machine.core machine core) supervisor_poll_cycles;
    match !sup_state with
    | 0 ->
      if Httpd.served httpd >= upgrade_threshold then begin
        do_upgrade ~core;
        incr sup_state
      end;
      Machine.Progress
    | 1 ->
      if Httpd.served httpd >= revoke_threshold then begin
        do_revoke ~core;
        incr sup_state
      end;
      Machine.Progress
    | _ -> Machine.Done
  in
  (* ---- drive the run ---- *)
  (* Differential Isoflow: snapshot the composed PT∘EPT sharing graph
     with every worker bound, before the storm and the control-plane
     events run. Whatever writable edges the run adds must be justified
     by a live shared buffer at the end — revocation, hot upgrade and
     crash recovery may grow the graph but never leak one. *)
  let graph_before = Sky_analysis.Isoflow.graph (Mesh.isoflow_input mesh) in
  storm ();
  Machine.sync_cores machine;
  let start = Cpu.cycles (Machine.core machine 0) in
  Loadgen.start lg ~at:(start + 500);
  Machine.interleave machine
    ~cores:[ 0; 1; 2; 3; workers ]
    ~step:(fun ~core ->
      if core < workers then Httpd.step httpd ~core else sup_step ~core);
  let elapsed = ref 1 in
  for core = 0 to workers - 1 do
    let c = Cpu.cycles (Machine.core machine core) - start in
    if c > !elapsed then elapsed := c
  done;
  let st = Mesh.retry_stats mesh in
  let dropped = Loadgen.expected lg - Loadgen.responses lg + Loadgen.errors lg in
  let iso_after = Mesh.isoflow_input mesh in
  let graph_after = Sky_analysis.Isoflow.graph iso_after in
  let gdelta = Sky_analysis.Isoflow.diff ~before:graph_before ~after:graph_after in
  let stale =
    Sky_analysis.Isoflow.stale
      ~shared:iso_after.Sky_analysis.Isoflow.shared gdelta
  in
  let mesh_pass, machine_passes =
    List.partition
      (fun (pr : Sky_analysis.Audit.pass_result) -> pr.pr_name = "mesh")
      (Mesh.audit_passes mesh)
  in
  {
    m_seed = seed;
    m_expected = Loadgen.expected lg;
    m_responses = Loadgen.responses lg;
    m_errors = Loadgen.errors lg;
    m_served = Httpd.served httpd;
    m_per_worker = List.init workers (Httpd.worker_served httpd);
    m_steals = Httpd.steals httpd;
    m_denials = Httpd.denials httpd;
    m_kv_v1 = !kv_v1_calls;
    m_kv_v2 = !kv_v2_calls;
    m_upgrade_at = !upgrade_at;
    m_revoke_at = !revoke_at;
    m_grants_retired = !grants_retired;
    m_resolves = Mesh.resolves mesh;
    m_cache_hits = Mesh.cache_hits mesh;
    m_epoch = Mesh.epoch mesh;
    m_restarts = st.Retry.restarts + Httpd.restarts httpd;
    m_attempts = st.Retry.attempts;
    m_recovered = st.Retry.retried_ok;
    m_degraded = st.Retry.degraded;
    m_lost = st.Retry.lost + dropped;
    m_forced_returns = Subkernel.forced_returns sb;
    m_sec_dropped = Subkernel.security_events_dropped sb;
    m_audit = List.length (Sky_analysis.Audit.violations machine_passes);
    m_mesh_audit = List.length (Sky_analysis.Audit.violations mesh_pass);
    m_graph_edges = List.length graph_after;
    m_graph_added = List.length gdelta.Sky_analysis.Isoflow.added;
    m_graph_removed = List.length gdelta.Sky_analysis.Isoflow.removed;
    m_graph_stale = List.length stale;
    m_fsck = List.length (Fsck.check (Fs_tier.fs tier) ~core:0);
    m_elapsed = !elapsed;
    m_tput = Costs.ops_per_sec ~ops:(Loadgen.responses lg) ~cycles:(max 1 !elapsed);
  }

(* ---- acceptance ---- *)

let all_served r = r.m_responses = r.m_expected && r.m_errors = 0
let fanned_out r = List.for_all (fun n -> n > 0) r.m_per_worker && r.m_steals > 0
let upgraded r = r.m_kv_v1 > 0 && r.m_kv_v2 > 0 && r.m_upgrade_at > 0
let degraded r = r.m_denials > 0
let audits_clean r = r.m_audit = 0 && r.m_mesh_audit = 0 && r.m_fsck = 0
let no_stale r = r.m_graph_stale = 0

let checks r =
  [
    ("all_served", all_served r);
    ("fanned_out", fanned_out r);
    ("upgraded", upgraded r);
    ("degraded", degraded r);
    ("audits_clean", audits_clean r);
    ("no_stale", no_stale r);
    ("zero_lost", r.m_lost = 0);
  ]

let ok r = List.for_all snd (checks r)

(* ---- rendering ---- *)

let table r =
  let row k v = [ k; v ] in
  Tbl.make
    ~title:
      (Printf.sprintf
         "Service mesh: URI-routed web stack, %d workers / %d RX rings (seed %d)"
         workers queues r.m_seed)
    ~header:[ "metric"; "value" ]
    ~notes:
      [
        "net -> skyhttpd -> kv:// + fs:// (over blk://), all by URI";
        Printf.sprintf
          "hot upgrade at %d served, fs:// revocation at %d served"
          r.m_upgrade_at r.m_revoke_at;
        "acceptance: all served, fan-out + steals, both KV generations, \
         denials bounced, audits clean, zero lost";
      ]
    [
      row "requests served / expected"
        (Printf.sprintf "%d / %d" r.m_responses r.m_expected);
      row "errors" (string_of_int r.m_errors);
      row "per-worker served"
        (String.concat " " (List.map string_of_int r.m_per_worker));
      row "endpoint steals" (string_of_int r.m_steals);
      row "denials (bounced)" (string_of_int r.m_denials);
      row "kv calls v1 / v2"
        (Printf.sprintf "%d / %d" r.m_kv_v1 r.m_kv_v2);
      row "grants retired" (string_of_int r.m_grants_retired);
      row "name resolves / cache hits"
        (Printf.sprintf "%d / %d" r.m_resolves r.m_cache_hits);
      row "epoch" (string_of_int r.m_epoch);
      row "restarts" (string_of_int r.m_restarts);
      row "lost" (string_of_int r.m_lost);
      row "audit (subkernel / mesh / fsck)"
        (Printf.sprintf "%d / %d / %d" r.m_audit r.m_mesh_audit r.m_fsck);
      row "sharing graph (edges / +added / -removed / stale)"
        (Printf.sprintf "%d / +%d / -%d / %d" r.m_graph_edges r.m_graph_added
           r.m_graph_removed r.m_graph_stale);
      row "throughput" (Tbl.fmt_ops r.m_tput);
      row "acceptance" (if ok r then "PASS" else "FAIL");
    ]

let to_json r =
  let open Sky_trace.Json in
  to_string
    (Obj
       [
         ("bench", String "mesh");
         ("seed", Int r.m_seed);
         ("workers", Int workers);
         ("queues", Int queues);
         ("expected", Int r.m_expected);
         ("responses", Int r.m_responses);
         ("errors", Int r.m_errors);
         ("served", Int r.m_served);
         ("per_worker", List (List.map (fun n -> Int n) r.m_per_worker));
         ("steals", Int r.m_steals);
         ("denials", Int r.m_denials);
         ("kv_v1_calls", Int r.m_kv_v1);
         ("kv_v2_calls", Int r.m_kv_v2);
         ("upgrade_at_served", Int r.m_upgrade_at);
         ("revoke_at_served", Int r.m_revoke_at);
         ("grants_retired", Int r.m_grants_retired);
         ("resolves", Int r.m_resolves);
         ("cache_hits", Int r.m_cache_hits);
         ("epoch", Int r.m_epoch);
         ("restarts", Int r.m_restarts);
         ("attempts", Int r.m_attempts);
         ("recovered", Int r.m_recovered);
         ("degraded", Int r.m_degraded);
         ("lost", Int r.m_lost);
         ("forced_returns", Int r.m_forced_returns);
         ("security_dropped", Int r.m_sec_dropped);
         ("audit_violations", Int r.m_audit);
         ("mesh_audit_violations", Int r.m_mesh_audit);
         ("graph_edges", Int r.m_graph_edges);
         ("graph_added", Int r.m_graph_added);
         ("graph_removed", Int r.m_graph_removed);
         ("graph_stale", Int r.m_graph_stale);
         ("fsck_problems", Int r.m_fsck);
         ("elapsed_cycles", Int r.m_elapsed);
         ("throughput_req_per_sec", Float r.m_tput);
         ("all_served", Bool (all_served r));
         ("fanned_out", Bool (fanned_out r));
         ("upgraded", Bool (upgraded r));
         ("degraded_cleanly", Bool (degraded r));
         ("audits_clean", Bool (audits_clean r));
         ("no_stale_mappings", Bool (no_stale r));
         ("ok", Bool (ok r));
       ])

let outcome r = Outcome.make ~checks:(checks r) (table r) (to_json r)
let run (_ : Budget.t) = outcome (run_mesh ())
