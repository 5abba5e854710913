(** Chaos: deterministic fault storms over the two flagship workloads.

    Scenario A runs the §2.1.2 KV pipeline (client → enc → kv) with the
    full storm — handler crashes, hangs past the watchdog, dropped
    replies, spurious EPT violations mid-walk, binding revocation at
    call entry, and random mid-server crashes — every call wrapped in
    {!Sky_core.Retry.call}. Scenario B runs the §6.5 SQLite stack
    (client → xv6fs → blockdev) with the crash-safe subset (dispatch
    crashes, hangs, random mid-op crashes): each crash triggers a server
    restart plus an FS remount, whose log recovery must leave the image
    consistent (checked by fsck afterwards). Scenario C storms the
    skyhttpd web stack, and scenario D the URI-routed service mesh —
    name-service crashes mid-resolve, receiver crashes mid-request and
    backend crashes layered under the scripted hot upgrade and
    capability revocation.

    Everything is seeded: the same seed yields a bit-identical census,
    byte for byte, run after run. *)

open Sky_ukernel
open Sky_kvstore
open Sky_harness
module Fault = Sky_faults.Fault
module Subkernel = Sky_core.Subkernel

(* The faults the storm has fired, per site in name order. *)
let injected () =
  Sky_trace.Json.(Obj (List.map (fun (site, n) -> (site, Int n)) (Fault.fired_counts ())))

(* One scenario's census: the retry stats [st], plus the [lost] calls
   and [restarts] they do not count, the Subkernel's counters after the
   storm, the faults fired per site, and the fsck problems when the
   scenario has a file system. *)
let census name (st : Sky_core.Retry.stats) sb ~lost ~restarts ~fsck =
  let open Sky_trace.Json in
  Obj
    ([
       ("name", String name);
       (* call attempts, including retries *)
       ("attempts", Int st.attempts);
       ("injected", injected ());
       (* calls that succeeded after >= 1 retry *)
       ("recovered", Int st.retried_ok);
       (* calls served via the slowpath fallback *)
       ("degraded", Int st.degraded);
       ("lost", Int (st.lost + lost));
       ("restarts", Int (st.restarts + restarts));
       (* §7 forced VMFUNC-0 returns *)
       ("forced_returns", Int (Subkernel.forced_returns sb));
       ("security_dropped", Int (Subkernel.security_events_dropped sb));
       ("audit_violations", Int (List.length (Subkernel.audit sb)));
     ]
    @ match fsck with None -> [] | Some n -> [ ("fsck_problems", Int n) ])

(* The sum of the per-name counts in object [key] of [j]: the faults a
   storm fired per site, or the violations an audit found per pass. *)
let total j key =
  match Outcome.field j key with
  | Sky_trace.Json.Obj kvs as o -> List.fold_left (fun a (k, _) -> a + Outcome.int o k) 0 kvs
  | _ -> invalid_arg ("Exp_chaos.total: " ^ key)

(* ---- scenario A: the KV pipeline under the full storm ---- *)

let kv_storm seed =
  Fault.reset ~seed ();
  Fault.arm ~budget:2 ~site:"server.enc-server" ~kind:Fault.Crash (Fault.At_hit 30);
  Fault.arm ~budget:3 ~site:"server.kv-server" ~kind:Fault.Crash (Fault.Every 45);
  Fault.arm ~budget:1 ~site:"server.kv-server" ~kind:Fault.Hang (Fault.At_hit 70);
  Fault.arm ~budget:2 ~site:"server.enc-server" ~kind:Fault.Drop (Fault.At_hit 110);
  Fault.arm ~budget:2 ~site:"mmu.walk" ~kind:Fault.Ept_fault (Fault.Prob 2e-3);
  Fault.arm ~budget:2 ~site:"sim.cycle" ~kind:Fault.Crash (Fault.Prob 1e-4);
  Fault.arm ~budget:1 ~site:"subkernel.call" ~kind:Fault.Revoke (Fault.At_hit 650)

(* The resilient KV-pipeline storm, also the backend matrix's recovery
   probe: a 4-core machine, the pipeline with every call through
   {!Sky_core.Retry}, [warm] ops with faults off, [arm ()] the storm, then
   [ops] alternating inserts and queries, a [Subkernel.Failed] counted
   as lost.
   Faults are disabled again on return; the census is read from the
   returned stats, subkernel and {!Fault.fired_counts}. *)
type storm_run = {
  k_stats : Sky_core.Retry.stats;
  k_gave_up : int;  (** calls that raised [Subkernel.Failed] *)
  k_sb : Subkernel.t;
}

let run_kv_storm ~warm ~ops arm =
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:128 () in
  let kernel = Kernel.create machine in
  let sb = Subkernel.init kernel in
  let st = Sky_core.Retry.create_stats () in
  let p = Pipeline.create ~sb ~retry:st kernel Pipeline.Skybridge in
  ignore (Pipeline.run p ~core:0 ~ops:warm ~len:64) (* warm, faults off *);
  arm ();
  let gave_up = ref 0 in
  (for i = 1 to ops do
     (* The workload itself is the integrity check: every query verifies
        decrypt(store(encrypt(v))) = v across whatever recovery path the
        storm forced the call down. *)
     try
       if i land 1 = 0 then Pipeline.query p ~core:0 ~len:64
       else Pipeline.insert p ~core:0 ~len:64
     with Subkernel.Failed _ -> incr gave_up
   done);
  Fault.disable ();
  { k_stats = st; k_gave_up = !gave_up; k_sb = sb }

let run_kv ~seed =
  let { k_stats; k_gave_up; k_sb } =
    run_kv_storm ~warm:32 ~ops:400 (fun () -> kv_storm seed)
  in
  census "kv-pipeline" k_stats k_sb ~lost:k_gave_up ~restarts:0 ~fsck:None

(* ---- scenario B: the SQLite/xv6fs stack under the crash-safe storm ---- *)

(* Only faults whose retry is idempotent at the FS level: dispatch-entry
   crashes (state untouched), hangs (the op completes, the reply is
   lost, the re-applied op rewrites the same bytes), and random mid-op
   crashes (the remount's log recovery rolls the partial op back). *)
let fs_storm seed =
  Fault.reset ~seed ();
  Fault.arm ~budget:2 ~site:"server.xv6fs" ~kind:Fault.Crash (Fault.At_hit 25);
  Fault.arm ~budget:1 ~site:"server.blockdev" ~kind:Fault.Crash (Fault.At_hit 180);
  Fault.arm ~budget:1 ~site:"server.xv6fs" ~kind:Fault.Hang (Fault.At_hit 90);
  Fault.arm ~budget:2 ~site:"sim.cycle" ~kind:Fault.Crash (Fault.Prob 5e-5)

let run_fs ~seed =
  let st = Sky_core.Retry.create_stats () in
  let stack, sb = Stack.build_resilient ~cores:4 ~disk_blocks:4096 st in
  let db = stack.Stack.db in
  let rng = Sky_sim.Rng.create ~seed:0xc4a05 in
  let value () = Sky_sim.Rng.bytes rng 100 in
  for key = 0 to 31 do
    Sky_sqldb.Db.insert db ~core:0 ~key ~value:(value ())
  done;
  fs_storm seed;
  let lost_hard = ref 0 in
  (for i = 0 to 119 do
     try
       match i mod 3 with
       | 0 -> Sky_sqldb.Db.insert db ~core:0 ~key:(100 + i) ~value:(value ())
       | 1 -> ignore (Sky_sqldb.Db.update db ~core:0 ~key:(i mod 32) ~value:(value ()))
       | _ -> ignore (Sky_sqldb.Db.query db ~core:0 ~key:(i mod 32))
     with Subkernel.Failed _ -> incr lost_hard
   done);
  Fault.disable ();
  census "sqlite-xv6fs" st sb ~lost:!lost_hard ~restarts:0
    ~fsck:(Some (List.length (Sky_xv6fs.Fsck.check (Stack.fs stack) ~core:0)))

(* ---- scenario C: the web stack under a worker + backend storm ---- *)

(* skyhttpd workers crash mid-request (the ["server.httpd"] site checks
   before any backend call, so the parked request replays cleanly) and
   hang past the watchdog; the KV backend crashes at dispatch (state
   untouched, Retry restarts and re-issues); the FS backend crashes
   during the post-restart cache re-reads (a worker crash wipes its
   static-file cache, so the big-locked FS is back on the serving path
   until the cache re-warms — Retry remounts and retries). *)
let web_storm seed =
  Fault.reset ~seed ();
  Fault.arm ~budget:3 ~site:Sky_net.Httpd.fault_site ~kind:Fault.Crash
    (Fault.Every 23);
  Fault.arm ~budget:1 ~site:Sky_net.Httpd.fault_site ~kind:Fault.Hang
    (Fault.At_hit 50);
  Fault.arm ~budget:2 ~site:"server.kvstore" ~kind:Fault.Crash (Fault.At_hit 40);
  Fault.arm ~budget:1 ~site:"server.xv6fs" ~kind:Fault.Crash (Fault.At_hit 2)

let run_web ~seed =
  let w =
    Sky_net.Web.build ~seed ~cores:4 ~conns:24 ~requests_per_conn:4 ~workers:3
      ~transport:Sky_net.Web.Skybridge ()
  in
  let { Sky_net.Web.sb; mesh; _ } = Sky_net.Web.sky w in
  (* Arm after build: boot (preload through the FS) runs fault-free. *)
  web_storm seed;
  Sky_net.Web.run w;
  Fault.disable ();
  let lg = Sky_net.Web.loadgen w in
  let httpd = Sky_net.Web.httpd w in
  let dropped =
    Sky_net.Loadgen.expected lg - Sky_net.Loadgen.responses lg
    + Sky_net.Loadgen.errors lg
  in
  census "web-skyhttpd"
    (Sky_mesh.Mesh.retry_stats mesh)
    sb ~lost:dropped ~restarts:(Sky_net.Httpd.restarts httpd)
    ~fsck:(Some (List.length (Sky_xv6fs.Fsck.check (Sky_net.Web.fs w) ~core:0)))

(* ---- scenario D: the URI-routed service mesh under storm ---- *)

(* The three mesh-specific failure points: the name service crashes
   mid-resolve (clients must re-resolve through Retry and land on a
   restarted nameserv with a coherent registry), an endpoint receiver
   crashes mid-request (the parked request replays, the wake fans out
   to the surviving receivers), and the KV backend crashes at dispatch.
   The scripted hot upgrade and fs:// revocation from [Exp_mesh] run
   concurrently with the storm. *)
let mesh_storm seed =
  Fault.reset ~seed ();
  Fault.arm ~budget:2 ~site:Sky_mesh.Mesh.fault_site ~kind:Fault.Crash
    (Fault.At_hit 9);
  Fault.arm ~budget:2 ~site:Sky_net.Httpd.fault_site ~kind:Fault.Crash
    (Fault.Every 31);
  Fault.arm ~budget:1 ~site:Sky_net.Httpd.fault_site ~kind:Fault.Hang
    (Fault.At_hit 75);
  Fault.arm ~budget:2 ~site:"server.kvstore" ~kind:Fault.Crash (Fault.At_hit 55)

let run_mesh ~seed =
  let r = Exp_mesh.run_mesh ~seed ~storm:(fun () -> mesh_storm seed) () in
  Fault.disable ();
  let open Sky_trace.Json in
  let n key = Int (Outcome.int r key) in
  Obj
    [
      ("name", String "mesh-uri-routed");
      ("attempts", n "attempts");
      ("injected", injected ());
      ("recovered", n "recovered");
      ("degraded", n "degraded");
      ("lost", n "lost");
      ("restarts", n "restarts");
      ("forced_returns", n "forced_returns");
      ("security_dropped", n "security_dropped");
      (* The differential Isoflow gate rides the audit count: a stale
         writable mapping left by crash → restart → rebind under storm
         fails the census exactly like a static violation. *)
      ( "audit_violations",
        Int
          Outcome.(
            int r "audit_violations" + int r "mesh_audit_violations" + int r "graph_stale") );
      ("fsck_problems", n "fsck_problems");
    ]

(* ---- census ---- *)

(* Every scenario lost nothing and left a clean audit and, where it has
   one, a clean file system. *)
let clean scenarios =
  List.for_all
    (fun s ->
      Outcome.(int s "lost" = 0 && int s "audit_violations" = 0)
      &&
      match Sky_trace.Json.member "fsck_problems" s with
      | None -> true
      | Some _ -> Outcome.int s "fsck_problems" = 0)
    scenarios

let run_chaos ~seed =
  let a = run_kv ~seed in
  (* Decorrelate the storms while keeping each a function of [seed]. *)
  let b = run_fs ~seed:(seed lxor 0x5eed) in
  let c = run_web ~seed:(seed lxor 0x3eb) in
  let d = run_mesh ~seed:(seed lxor 0x3e5b) in
  let scenarios = [ a; b; c; d ] in
  Sky_trace.Json.(
    Obj [ ("seed", Int seed); ("clean", Bool (clean scenarios)); ("scenarios", List scenarios) ])

let table c =
  let row s =
    let n key = string_of_int (Outcome.int s key) in
    [
      Outcome.string s "name";
      string_of_int (total s "injected");
      n "attempts";
      n "recovered";
      n "degraded";
      n "lost";
      n "restarts";
      n "forced_returns";
      n "audit_violations";
      (match Sky_trace.Json.member "fsck_problems" s with
      | None -> "-"
      | Some _ -> n "fsck_problems");
    ]
  in
  Tbl.make
    ~title:(Printf.sprintf "Chaos: fault storm census (seed %d)" (Outcome.int c "seed"))
    ~header:
      [
        "scenario"; "injected"; "attempts"; "recovered"; "degraded"; "lost";
        "restarts"; "forced ret"; "audit"; "fsck";
      ]
    ~notes:
      [
        "acceptance: lost = 0, audit = 0, fsck = 0 — every injected fault \
         is recovered (retry), degraded (slowpath) or surfaced as a typed \
         error, never silent corruption";
      ]
    (List.map row (Outcome.list c "scenarios"))

let outcome c =
  Outcome.make ~checks:[ ("clean", clean (Outcome.list c "scenarios")) ] (table c) c

let run (_ : Budget.t) = outcome (run_chaos ~seed:1)
