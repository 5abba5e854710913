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

(* The supervisor polls the served counter between quanta; cheap, and
   keeps its virtual clock moving with the workers. *)
let supervisor_poll_cycles = 400

(* ---- acceptance: predicates over the payload ---- *)

let all_served r = Outcome.(int r "responses" = int r "expected" && int r "errors" = 0)

let fanned_out r =
  List.for_all
    (function Sky_trace.Json.Int n -> n > 0 | _ -> false)
    (Outcome.list r "per_worker")
  && Outcome.int r "steals" > 0

let upgraded r =
  Outcome.(int r "kv_v1_calls" > 0 && int r "kv_v2_calls" > 0 && int r "upgrade_at_served" > 0)

let degraded r = Outcome.int r "denials" > 0

let audits_clean r =
  Outcome.(
    int r "audit_violations" = 0 && int r "mesh_audit_violations" = 0
    && int r "fsck_problems" = 0)

let no_stale r = Outcome.int r "graph_stale" = 0

let checks r =
  [
    ("all_served", all_served r);
    ("fanned_out", fanned_out r);
    ("upgraded", upgraded r);
    ("degraded", degraded r);
    ("audits_clean", audits_clean r);
    ("no_stale", no_stale r);
    ("zero_lost", Outcome.int r "lost" = 0);
  ]

let ok r = List.for_all snd (checks r)

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
  let open Sky_trace.Json in
  let fields =
    [
      ("bench", String "mesh");
      ("seed", Int seed);
      ("workers", Int workers);
      ("queues", Int queues);
      ("expected", Int (Loadgen.expected lg));
      ("responses", Int (Loadgen.responses lg));
      ("errors", Int (Loadgen.errors lg));
      ("served", Int (Httpd.served httpd));
      ("per_worker", List (List.init workers (fun w -> Int (Httpd.worker_served httpd w))));
      ("steals", Int (Httpd.steals httpd));
      ("denials", Int (Httpd.denials httpd));
      ("kv_v1_calls", Int !kv_v1_calls);
      ("kv_v2_calls", Int !kv_v2_calls);
      ("upgrade_at_served", Int !upgrade_at);
      ("revoke_at_served", Int !revoke_at);
      ("grants_retired", Int !grants_retired);
      ("resolves", Int (Mesh.resolves mesh));
      ("cache_hits", Int (Mesh.cache_hits mesh));
      ("epoch", Int (Mesh.epoch mesh));
      ("restarts", Int (st.Retry.restarts + Httpd.restarts httpd));
      ("attempts", Int st.Retry.attempts);
      ("recovered", Int st.Retry.retried_ok);
      ("degraded", Int st.Retry.degraded);
      (* retry-budget losses + unanswered requests *)
      ("lost", Int (st.Retry.lost + dropped));
      ("forced_returns", Int (Subkernel.forced_returns sb));
      ("security_dropped", Int (Subkernel.security_events_dropped sb));
      ("audit_violations", Int (List.length (Sky_analysis.Audit.violations machine_passes)));
      ("mesh_audit_violations", Int (List.length (Sky_analysis.Audit.violations mesh_pass)));
      (* The Isoflow differential gate: added writable edges no live
         shared buffer justifies. Crash -> restart -> rebind and the two
         control-plane events must leave none. *)
      ("graph_edges", Int (List.length graph_after));
      ("graph_added", Int (List.length gdelta.Sky_analysis.Isoflow.added));
      ("graph_removed", Int (List.length gdelta.Sky_analysis.Isoflow.removed));
      ("graph_stale", Int (List.length stale));
      ("fsck_problems", Int (List.length (Fsck.check (Fs_tier.fs tier) ~core:0)));
      ("elapsed_cycles", Int !elapsed);
      ( "throughput_req_per_sec",
        Float (Costs.ops_per_sec ~ops:(Loadgen.responses lg) ~cycles:(max 1 !elapsed)) );
    ]
  in
  let r = Obj fields in
  Obj
    (fields
    @ [
        ("all_served", Bool (all_served r));
        ("fanned_out", Bool (fanned_out r));
        ("upgraded", Bool (upgraded r));
        ("degraded_cleanly", Bool (degraded r));
        ("audits_clean", Bool (audits_clean r));
        ("no_stale_mappings", Bool (no_stale r));
        ("ok", Bool (ok r));
      ])

(* ---- rendering ---- *)

let table r =
  let row k v = [ k; v ] in
  let n key = string_of_int (Outcome.int r key) in
  let pair k1 k2 = Printf.sprintf "%s / %s" (n k1) (n k2) in
  Tbl.make
    ~title:
      (Printf.sprintf
         "Service mesh: URI-routed web stack, %d workers / %d RX rings (seed %d)"
         workers queues (Outcome.int r "seed"))
    ~header:[ "metric"; "value" ]
    ~notes:
      [
        "net -> skyhttpd -> kv:// + fs:// (over blk://), all by URI";
        Printf.sprintf "hot upgrade at %s served, fs:// revocation at %s served"
          (n "upgrade_at_served") (n "revoke_at_served");
        "acceptance: all served, fan-out + steals, both KV generations, \
         denials bounced, audits clean, zero lost";
      ]
    [
      row "requests served / expected" (pair "responses" "expected");
      row "errors" (n "errors");
      row "per-worker served"
        (String.concat " " (List.map Sky_trace.Json.to_string (Outcome.list r "per_worker")));
      row "endpoint steals" (n "steals");
      row "denials (bounced)" (n "denials");
      row "kv calls v1 / v2" (pair "kv_v1_calls" "kv_v2_calls");
      row "grants retired" (n "grants_retired");
      row "name resolves / cache hits" (pair "resolves" "cache_hits");
      row "epoch" (n "epoch");
      row "restarts" (n "restarts");
      row "lost" (n "lost");
      row "audit (subkernel / mesh / fsck)"
        (Printf.sprintf "%s / %s / %s" (n "audit_violations") (n "mesh_audit_violations")
           (n "fsck_problems"));
      row "sharing graph (edges / +added / -removed / stale)"
        (Printf.sprintf "%s / +%s / -%s / %s" (n "graph_edges") (n "graph_added")
           (n "graph_removed") (n "graph_stale"));
      row "throughput" (Tbl.fmt_ops (Outcome.float r "throughput_req_per_sec"));
      row "acceptance" (if ok r then "PASS" else "FAIL");
    ]

let outcome r = Outcome.make ~checks:(checks r) (table r) r
let run (_ : Budget.t) = outcome (run_mesh ())
