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

type scenario = {
  s_name : string;
  s_attempts : int;  (** call attempts, including retries *)
  s_injected : (string * int) list;  (** faults fired, per site *)
  s_recovered : int;  (** calls that succeeded after >= 1 retry *)
  s_degraded : int;  (** calls served via the slowpath fallback *)
  s_lost : int;  (** calls that exhausted the retry budget *)
  s_restarts : int;  (** server restarts *)
  s_forced_returns : int;  (** §7 forced VMFUNC-0 returns *)
  s_sec_dropped : int;  (** security-ring overflow drops *)
  s_audit : int;  (** post-storm audit violations — must be 0 *)
  s_fsck : int option;  (** fsck problems when the server was the FS *)
}

type census = { c_seed : int; c_scenarios : scenario list }

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
   [ops] alternating inserts and queries, a [Gave_up] counted as lost.
   Faults are disabled again on return; the census is read from the
   returned stats, subkernel and {!Fault.fired_counts}. *)
type storm_run = {
  k_stats : Sky_core.Retry.stats;
  k_gave_up : int;  (** calls that raised [Retry.Gave_up] *)
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
     with Sky_core.Retry.Gave_up _ -> incr gave_up
   done);
  Fault.disable ();
  { k_stats = st; k_gave_up = !gave_up; k_sb = sb }

let run_kv ~seed =
  let { k_stats = st; k_gave_up; k_sb = sb } =
    run_kv_storm ~warm:32 ~ops:400 (fun () -> kv_storm seed)
  in
  {
    s_name = "kv-pipeline";
    s_attempts = st.Sky_core.Retry.attempts;
    s_injected = Fault.fired_counts ();
    s_recovered = st.Sky_core.Retry.retried_ok;
    s_degraded = st.Sky_core.Retry.degraded;
    s_lost = st.Sky_core.Retry.lost + k_gave_up;
    s_restarts = st.Sky_core.Retry.restarts;
    s_forced_returns = Subkernel.forced_returns sb;
    s_sec_dropped = Subkernel.security_events_dropped sb;
    s_audit = List.length (Subkernel.audit sb);
    s_fsck = None;
  }

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
     with Sky_core.Retry.Gave_up _ -> incr lost_hard
   done);
  Fault.disable ();
  let fsck = Sky_xv6fs.Fsck.check (Stack.fs stack) ~core:0 in
  {
    s_name = "sqlite-xv6fs";
    s_attempts = st.Sky_core.Retry.attempts;
    s_injected = Fault.fired_counts ();
    s_recovered = st.Sky_core.Retry.retried_ok;
    s_degraded = st.Sky_core.Retry.degraded;
    s_lost = st.Sky_core.Retry.lost + !lost_hard;
    s_restarts = st.Sky_core.Retry.restarts;
    s_forced_returns = Subkernel.forced_returns sb;
    s_sec_dropped = Subkernel.security_events_dropped sb;
    s_audit = List.length (Subkernel.audit sb);
    s_fsck = Some (List.length fsck);
  }

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
  let st = Sky_mesh.Mesh.retry_stats mesh in
  let lg = Sky_net.Web.loadgen w in
  let httpd = Sky_net.Web.httpd w in
  let dropped =
    Sky_net.Loadgen.expected lg - Sky_net.Loadgen.responses lg
    + Sky_net.Loadgen.errors lg
  in
  let fsck = Sky_xv6fs.Fsck.check (Sky_net.Web.fs w) ~core:0 in
  {
    s_name = "web-skyhttpd";
    s_attempts = st.Sky_core.Retry.attempts;
    s_injected = Fault.fired_counts ();
    s_recovered = st.Sky_core.Retry.retried_ok;
    s_degraded = st.Sky_core.Retry.degraded;
    s_lost = st.Sky_core.Retry.lost + dropped;
    s_restarts = st.Sky_core.Retry.restarts + Sky_net.Httpd.restarts httpd;
    s_forced_returns = Subkernel.forced_returns sb;
    s_sec_dropped = Subkernel.security_events_dropped sb;
    s_audit = List.length (Subkernel.audit sb);
    s_fsck = Some (List.length fsck);
  }

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
  {
    s_name = "mesh-uri-routed";
    s_attempts = r.Exp_mesh.m_attempts;
    s_injected = Fault.fired_counts ();
    s_recovered = r.Exp_mesh.m_recovered;
    s_degraded = r.Exp_mesh.m_degraded;
    s_lost = r.Exp_mesh.m_lost;
    s_restarts = r.Exp_mesh.m_restarts;
    s_forced_returns = r.Exp_mesh.m_forced_returns;
    s_sec_dropped = r.Exp_mesh.m_sec_dropped;
    (* The differential Isoflow gate rides the audit count: a stale
       writable mapping left by crash → restart → rebind under storm
       fails the census exactly like a static violation. *)
    s_audit =
      r.Exp_mesh.m_audit + r.Exp_mesh.m_mesh_audit + r.Exp_mesh.m_graph_stale;
    s_fsck = Some r.Exp_mesh.m_fsck;
  }

(* ---- census ---- *)

let run_chaos ~seed =
  let a = run_kv ~seed in
  (* Decorrelate the storms while keeping each a function of [seed]. *)
  let b = run_fs ~seed:(seed lxor 0x5eed) in
  let c = run_web ~seed:(seed lxor 0x3eb) in
  let d = run_mesh ~seed:(seed lxor 0x3e5b) in
  { c_seed = seed; c_scenarios = [ a; b; c; d ] }

let clean c =
  List.for_all
    (fun s ->
      s.s_lost = 0 && s.s_audit = 0
      && match s.s_fsck with None | Some 0 -> true | Some _ -> false)
    c.c_scenarios

let census_to_json c =
  let open Sky_trace.Json in
  let scenario s =
    Obj
      ([
         ("name", String s.s_name);
         ("attempts", Int s.s_attempts);
         ( "injected",
           Obj (List.map (fun (site, n) -> (site, Int n)) s.s_injected) );
         ("recovered", Int s.s_recovered);
         ("degraded", Int s.s_degraded);
         ("lost", Int s.s_lost);
         ("restarts", Int s.s_restarts);
         ("forced_returns", Int s.s_forced_returns);
         ("security_dropped", Int s.s_sec_dropped);
         ("audit_violations", Int s.s_audit);
       ]
      @ match s.s_fsck with None -> [] | Some n -> [ ("fsck_problems", Int n) ])
  in
  to_string
    (Obj
       [
         ("seed", Int c.c_seed);
         ("clean", Bool (clean c));
         ("scenarios", List (List.map scenario c.c_scenarios));
       ])

let census_table c =
  let row s =
    [
      s.s_name;
      string_of_int (List.fold_left (fun a (_, n) -> a + n) 0 s.s_injected);
      string_of_int s.s_attempts;
      string_of_int s.s_recovered;
      string_of_int s.s_degraded;
      string_of_int s.s_lost;
      string_of_int s.s_restarts;
      string_of_int s.s_forced_returns;
      string_of_int s.s_audit;
      (match s.s_fsck with None -> "-" | Some n -> string_of_int n);
    ]
  in
  Tbl.make
    ~title:(Printf.sprintf "Chaos: fault storm census (seed %d)" c.c_seed)
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
    (List.map row c.c_scenarios)

let outcome c =
  Outcome.make ~checks:[ ("clean", clean c) ] (census_table c) (census_to_json c)

let run (_ : Budget.t) = outcome (run_chaos ~seed:1)
