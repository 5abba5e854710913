(** The quantum-scheduler gate: bit-identical parallel simulation, plus
    the host-parallelism speedup measurement.

    Phase A ({e equivalence}) builds small web-serving clusters — with
    per-shard fault storms armed, so crash/restart/replay machinery runs
    inside the comparison — and checks that the {!Sky_sim.Quantum}
    scheduler produces byte-identical {!Sky_net.Cluster_web.digest}s:

    - [Seq] vs [Par] at the same quantum (full digest, gossip included),
      for every isolation backend and for two different job counts;
    - chunked ([Seq] with a quantum) vs the plain unchunked per-shard
      {!Sky_net.Web.run} — the boundary must not reorder anything;
    - two different quantum sizes (digest without the gossip log, which
      intentionally records boundary placement).

    Phase B ({e speedup}) runs a larger cluster — [shards × workers]
    sized to the paper's 16-core evaluation box; its [Seq] run takes
    about 0.3 s on a 2-vCPU host — in three alternating
    [Seq]/[Par] pairs, wall-clocking every run on the host clock. The
    speedup is the median of the three per-pair ratios: one shot at this
    size varies by tens of percent on a shared host.
    The speedup gate scales with what the host can actually deliver
    ([Domain.recommended_domain_count]): ≥2x where four or more domains
    are available, a reduced bar for 2–3, and an explicit {e waived}
    verdict on a single-domain host, where no scheduler can manufacture
    parallelism. Wall seconds, the measured speedup and the verdict are
    host-dependent, so they never appear in the deterministic payload:
    {!run_full} returns them beside it as host facts, which
    BENCH_parallel.json records under "host" and the speedup gate
    reads. *)

open Sky_net
open Sky_harness
module Fault = Sky_faults.Fault

(* One equivalence check as the payload carries it. *)
let check name ok = Sky_trace.Json.(Obj [ ("name", String name); ("ok", Bool ok) ])
let all_identical checks = List.for_all (fun c -> Outcome.bool c "ok") checks

(* ---- phase A: equivalence ---- *)

let eq_shards = 3
let eq_workers = 2
let eq_conns = 8
let eq_requests = 2
let eq_quantum = 20_000
let alt_quantum = 7_333

(* Per-shard fault storms (armed inside the shard's scope bundle): even
   shards lose a worker mid-run and replay its in-flight requests, so
   the equivalence comparison covers the recovery machinery, not just
   the happy path. Distinct schedules per shard — identical storms on
   every shard would hide cross-shard state leaks. *)
let storm ~shard =
  if shard mod 2 = 0 then begin
    Fault.reset ~seed:(1000 + shard) ();
    Fault.arm ~budget:1 ~site:"server.httpd" ~kind:Fault.Crash
      (Fault.At_hit (7 + (5 * shard)));
    Fault.arm ~budget:1 ~site:"server.httpd" ~kind:Fault.Hang
      (Fault.At_hit (19 + (3 * shard)))
  end

let build_eq ?(quantum = eq_quantum) ~seed () =
  Cluster_web.build ~seed ~quantum ~conns:eq_conns
    ~requests_per_conn:eq_requests ~prepare:storm ~shards:eq_shards
    ~workers:eq_workers ~transport:Web.Skybridge ()

(* The unchunked reference: each shard driven to completion by the plain
   sequential scheduler, no quantum anywhere. *)
let run_reference cl =
  for i = 0 to Cluster_web.n_shards cl - 1 do
    Sky_sim.Scopes.enter
      (Cluster_web.shard_scope cl i)
      (fun () -> Web.run (Cluster_web.shard_web cl i))
  done

let fired_total cl =
  let n = ref 0 in
  for i = 0 to Cluster_web.n_shards cl - 1 do
    Sky_sim.Scopes.enter
      (Cluster_web.shard_scope cl i)
      (fun () ->
        List.iter (fun (_, c) -> n := !n + c) (Fault.fired_counts ()))
  done;
  !n

let equivalence ~seed =
  let checks = ref [] in
  let check name ok = checks := check name ok :: !checks in
  let seq_vs_par backend =
    Sky_core.Backend.with_default backend @@ fun () ->
    let bname = Sky_core.Backend.name backend in
    let seq = build_eq ~seed () in
    ignore (Cluster_web.run seq Sky_sim.Quantum.Seq);
    let dseq = Cluster_web.digest seq in
    let par = build_eq ~seed () in
    ignore (Cluster_web.run par (Sky_sim.Quantum.Par { jobs = 2 }));
    check
      (Printf.sprintf "seq-vs-par2:%s" bname)
      (dseq = Cluster_web.digest par);
    seq
  in
  (* Every backend: the same cluster, sequential vs two domains. *)
  let seq_vmfunc = seq_vs_par Sky_core.Backend.Vmfunc in
  ignore (seq_vs_par Sky_core.Backend.Mpk);
  ignore (seq_vs_par Sky_core.Backend.Syscall);
  let dseq = Cluster_web.digest seq_vmfunc in
  let dseq_bare = Cluster_web.digest ~gossip:false seq_vmfunc in
  (* The runs below are compared with [seq_vmfunc], so they are built
     and run under its backend, whatever the ambient one is. *)
  Sky_core.Backend.with_default Sky_core.Backend.Vmfunc @@ fun () ->
  (* More domains than shards ever run at once. *)
  let par3 = build_eq ~seed () in
  ignore (Cluster_web.run par3 (Sky_sim.Quantum.Par { jobs = 3 }));
  check "jobs-invariance:par3" (dseq = Cluster_web.digest par3);
  (* Chunked vs the plain unchunked sequential scheduler. *)
  let reference = build_eq ~seed () in
  run_reference reference;
  check "chunked-vs-unchunked"
    (dseq_bare = Cluster_web.digest ~gossip:false reference);
  (* A different quantum only moves the boundaries, never the physics. *)
  let altq = build_eq ~quantum:alt_quantum ~seed () in
  ignore (Cluster_web.run altq Sky_sim.Quantum.Seq);
  check "quantum-invariance"
    (dseq_bare = Cluster_web.digest ~gossip:false altq);
  (* The storm must actually have fired, or the recovery-path coverage
     claimed above is vacuous. *)
  let fired = fired_total seq_vmfunc in
  check "storm-fired" (fired > 0);
  check "served-nonzero" (Cluster_web.served seq_vmfunc > 0);
  (seq_vmfunc, fired, List.rev !checks)

(* ---- phase B: speedup ---- *)

let sc_shards = 4
let sc_workers = 4
let sc_conns = 128

(* 7,168 requests per shard (Seq about 0.3 s on a 2-vCPU host): short of
   the ~12,000 a shard serves before Kv_server's 4,096-slot table fills,
   so a longer phase needs more shards or rounds, not more requests. *)
let sc_requests = 56
let sc_quantum = Sky_sim.Quantum.default_quantum
let sc_pairs = 3

let build_scale ~seed () =
  Cluster_web.build ~seed ~quantum:sc_quantum ~conns:sc_conns
    ~requests_per_conn:sc_requests ~shards:sc_shards ~workers:sc_workers
    ~transport:Web.Skybridge ()

(* One wall-clocked run on a fresh cluster, keeping only what the result
   needs so the pairs never hold more than one cluster alive. *)
let timed_run ~seed engine =
  let cl = build_scale ~seed () in
  let t0 = Unix.gettimeofday () in
  let quanta = Cluster_web.run cl engine in
  let seconds = Unix.gettimeofday () -. t0 in
  (seconds, (Cluster_web.digest cl, Cluster_web.served cl, quanta))

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

(* The honest gate: a simulator cannot out-parallelize its host. With
   [d] usable domains the bar is ~0.65x per extra domain up to the 2x
   the issue demands of a >=4-way host; a single-domain host gets an
   explicit waiver, not a fake pass. *)
let gate_of ~domains ~jobs ~speedup =
  if domains <= 1 then "waived:single-host-domain"
  else
    let bar = Float.min 2.0 (0.65 *. float_of_int (min jobs domains)) in
    if speedup >= bar then Printf.sprintf "pass:>=%.2fx" bar
    else Printf.sprintf "fail:<%.2fx" bar

(* The scale phase's payload, its digest check, and the host facts:
   every pair's wall seconds, the median speedup and the verdict. *)
let speedup_phase ~seed =
  let domains = Domain.recommended_domain_count () in
  let jobs = max 1 (min sc_shards domains) in
  let seq () = timed_run ~seed Sky_sim.Quantum.Seq in
  let par () = timed_run ~seed (Sky_sim.Quantum.Par { jobs }) in
  (* Alternate which engine runs first, so host drift hits both alike. *)
  let pairs =
    List.init sc_pairs (fun k ->
        if k mod 2 = 0 then
          let s = seq () in
          (s, par ())
        else
          let p = par () in
          (seq (), p))
  in
  let _, ((_, served, quanta) as first) = fst (List.hd pairs) in
  let speedup =
    median
      (List.map
         (fun ((s, _), (p, _)) -> if p > 0. then s /. p else 1.0)
         pairs)
  in
  let open Sky_trace.Json in
  ( Obj
      [
        ("shards", Int sc_shards);
        ("workers_per_shard", Int sc_workers);
        ("quantum_cycles", Int sc_quantum);
        ("served", Int served);
        ("quanta", Int quanta);
      ],
    (* The scale cluster must satisfy the same determinism gate, every run. *)
    check "digest:scale-seq-vs-par"
      (List.for_all (fun ((_, s), (_, p)) -> s = first && p = first) pairs),
    [
      ("domains", Int domains);
      ("jobs", Int jobs);
      ( "seq_par_seconds",
        String
          (String.concat " "
             (List.map (fun ((s, _), (p, _)) -> Printf.sprintf "%.2f/%.2f" s p) pairs)) );
      ("median_speedup", String (Printf.sprintf "%.2fx" speedup));
      ("gate", String (gate_of ~domains ~jobs ~speedup));
    ] )

(* The deterministic payload, which CI byte-diffs across runs, and beside
   it the host facts ({!speedup_phase}) that BENCH_parallel.json records
   under "host". *)
let run_full () =
  let seed = 42 in
  let eq, fired, checks = equivalence ~seed in
  let scale, digest, host = speedup_phase ~seed in
  let checks = checks @ [ digest ] in
  let open Sky_trace.Json in
  ( Obj
      [
        ("bench", String "parallel");
        ("seed", Int seed);
        ( "equivalence",
          Obj
            [
              ("shards", Int eq_shards);
              ("workers_per_shard", Int eq_workers);
              ("quantum_cycles", Int eq_quantum);
              ("alt_quantum_cycles", Int alt_quantum);
              ("served", Int (Cluster_web.served eq));
              ("errors", Int (Cluster_web.errors eq));
              ("quanta", Int (Cluster_web.quanta eq));
              ("faults_fired", Int fired);
            ] );
        ("scale", scale);
        ("checks", List checks);
        ("all_identical", Bool (all_identical checks));
      ],
    host )

let gate_ok gate = not (String.starts_with ~prefix:"fail" gate)

(* ---- rendering ---- *)

let table r host =
  let eq = Outcome.field r "equivalence" and sc = Outcome.field r "scale" in
  let h = Sky_trace.Json.Obj host in
  Tbl.make
    ~title:
      (Printf.sprintf
         "Quantum-synchronized parallel simulation (quantum %d cycles)"
         (Outcome.int eq "quantum_cycles"))
    ~header:[ "check"; "result" ]
    ~notes:
      Outcome.
        [
          Printf.sprintf
            "equivalence: %d shards x %d workers, faults armed; scale: %d x %d"
            (int eq "shards") (int eq "workers_per_shard") (int sc "shards")
            (int sc "workers_per_shard");
          Printf.sprintf "host: %d domain(s), par jobs=%d, median speedup %s -> gate %s"
            (int h "domains") (int h "jobs") (string h "median_speedup") (string h "gate");
        ]
    (List.map
       (fun c ->
         [ Outcome.string c "name"; (if Outcome.bool c "ok" then "identical" else "MISMATCH") ])
       (Outcome.list r "checks")
    @ [ [ "speedup-gate"; Outcome.string h "gate" ] ])

let outcome (r, host) =
  let gate = Outcome.string (Sky_trace.Json.Obj host) "gate" in
  Outcome.make ~host
    ~checks:
      [
        ("all_identical", all_identical (Outcome.list r "checks"));
        ("speedup_gate " ^ gate, gate_ok gate);
      ]
    (table r host) r

let run (_ : Budget.t) = outcome (run_full ())
