(* The quantum-scheduler determinism sweep.

   Property: for a random cluster configuration — shard count, workers
   per shard, quantum size, workload seed, fault-storm seed, isolation
   backend — the parallel engine (OCaml domains, barrier at quantum
   boundaries) produces a byte-identical Cluster_web digest to the
   sequential engine, and chunking itself is invisible (two different
   quanta agree once the boundary-dependent gossip log is excluded).

   The digest covers per-core cycle counters, the full PMU vector,
   cache/TLB footprints, serving counters, latency percentiles, fired
   faults and the trace-stream hash, so "byte-identical" here is the
   machine-state + PMU + trace equivalence the issue demands. *)

open Sky_net
module Fault = Sky_faults.Fault
module Backend = Sky_core.Backend

type config = {
  g_shards : int;
  g_workers : int;
  g_quantum : int;
  g_alt_quantum : int;
  g_seed : int;
  g_storm_seed : int;
  g_backend : Backend.kind;
}

let show_config g =
  Printf.sprintf "{shards=%d workers=%d quantum=%d alt=%d seed=%d storm=%d %s}"
    g.g_shards g.g_workers g.g_quantum g.g_alt_quantum g.g_seed g.g_storm_seed
    (Backend.name g.g_backend)

let config_gen =
  QCheck.Gen.(
    let* g_shards = int_range 1 3 in
    let* g_workers = int_range 1 3 in
    let* g_quantum = int_range 2_000 60_000 in
    let* g_alt_quantum = int_range 2_000 60_000 in
    let* g_seed = int_range 0 10_000 in
    let* g_storm_seed = int_range 0 10_000 in
    let+ g_backend = oneofl Backend.all in
    { g_shards; g_workers; g_quantum; g_alt_quantum; g_seed; g_storm_seed;
      g_backend })

let config_arb = QCheck.make ~print:show_config config_gen

(* A random-but-deterministic per-shard storm: the schedule is a pure
   function of (storm seed, shard), so both clusters in a comparison arm
   identically. Roughly half the shards get faults. *)
let storm ~storm_seed ~shard =
  let h = Hashtbl.hash (storm_seed, shard) in
  if h land 1 = 0 then begin
    Fault.reset ~seed:(storm_seed + shard) ();
    Fault.arm ~budget:1 ~site:"server.httpd" ~kind:Fault.Crash
      (Fault.At_hit (3 + (h mod 17)));
    if h land 2 = 0 then
      Fault.arm ~budget:1 ~site:"server.httpd" ~kind:Fault.Hang
        (Fault.At_hit (5 + (h mod 11)))
  end

let build g ~quantum =
  Cluster_web.build ~seed:g.g_seed ~quantum ~conns:6 ~requests_per_conn:2
    ~prepare:(fun ~shard -> storm ~storm_seed:g.g_storm_seed ~shard)
    ~shards:g.g_shards ~workers:g.g_workers ~transport:Web.Skybridge ()

let seq_vs_par =
  QCheck.Test.make
    ~name:
      "random cluster config: Seq and Par digests byte-identical (state, \
       PMU, trace, faults)"
    ~count:12 config_arb
    (fun g ->
      Backend.with_default g.g_backend @@ fun () ->
      let seq = build g ~quantum:g.g_quantum in
      ignore (Cluster_web.run seq Sky_sim.Quantum.Seq);
      let par = build g ~quantum:g.g_quantum in
      ignore
        (Cluster_web.run par
           (Sky_sim.Quantum.Par { jobs = 1 + (g.g_seed mod 3) }));
      Cluster_web.digest seq = Cluster_web.digest par)

let quantum_invariance =
  QCheck.Test.make
    ~name:
      "random cluster config: two quantum sizes agree up to the gossip log"
    ~count:8 config_arb
    (fun g ->
      Backend.with_default g.g_backend @@ fun () ->
      let a = build g ~quantum:g.g_quantum in
      ignore (Cluster_web.run a Sky_sim.Quantum.Seq);
      let b = build g ~quantum:g.g_alt_quantum in
      ignore (Cluster_web.run b (Sky_sim.Quantum.Par { jobs = 2 }));
      Cluster_web.digest ~gossip:false a = Cluster_web.digest ~gossip:false b)

(* Deterministic (non-random) anchor: the shape of `skybench run parallel`'s
   speedup phase (4 shards x 4 workers, 16 simulated cores), at a
   smaller load, must digest-match engines too. *)
let scale_anchor () =
  let mk () =
    Cluster_web.build ~seed:7 ~quantum:50_000 ~conns:8 ~requests_per_conn:2
      ~shards:4 ~workers:4 ~transport:Web.Skybridge ()
  in
  let seq = mk () in
  ignore (Cluster_web.run seq Sky_sim.Quantum.Seq);
  let par = mk () in
  ignore (Cluster_web.run par (Sky_sim.Quantum.Par { jobs = 4 }));
  Alcotest.(check bool)
    "4x4 scale cluster: Seq = Par4 digest" true
    (Cluster_web.digest seq = Cluster_web.digest par)

(* ---- the Par engine's worker pool ---- *)

module Quantum = Sky_sim.Quantum

(* [lanes] trivial lanes that each finish after [quanta] quanta,
   recording the domain that ran every (lane, quantum); lane [i] raises
   [Failure] at quantum [q] when [fail ~lane:i ~quantum:q]. *)
let recording_lanes ?(fail = fun ~lane:_ ~quantum:_ -> false) ~lanes ~quanta
    () =
  let seen = Array.make_matrix lanes quanta (-1) in
  let lane i =
    let next = ref 0 in
    {
      Quantum.l_name = Printf.sprintf "lane%d" i;
      l_advance =
        (fun ~until:_ ->
          let q = !next in
          incr next;
          if fail ~lane:i ~quantum:q then
            failwith (Printf.sprintf "lane %d quantum %d" i q);
          (* An engine that swallowed the failure would advance this
             lane past [quanta]: finish instead, so [run] returns and
             the check fails rather than spinning. *)
          if q < quanta then seen.(i).(q) <- (Domain.self () :> int);
          if q + 1 >= quanta then `Done else `Paused);
    }
  in
  (List.init lanes lane, seen)

let caller () = (Domain.self () :> int)

let distinct_domains seen =
  Array.to_list seen |> Array.concat |> Array.to_list
  |> List.sort_uniq compare |> List.length

(* Workers live for the whole run: a lane never changes domain, and the
   caller is worker 0, so it owns lanes 0 and 2 under two jobs. *)
let pool_persistence () =
  let lanes, seen = recording_lanes ~lanes:4 ~quanta:6 () in
  let quanta = Quantum.run ~quantum:1 (Quantum.Par { jobs = 2 }) ~lanes () in
  Alcotest.(check int) "quanta" 6 quanta;
  Array.iteri
    (fun i row ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d stays on one domain" i)
        true
        (Array.for_all (( = ) row.(0)) row))
    seen;
  Alcotest.(check int) "lane 0 on the caller" (caller ()) seen.(0).(0);
  Alcotest.(check int) "lane 2 on the caller" (caller ()) seen.(2).(0);
  Alcotest.(check bool) "lanes 1 and 3 share one helper" true
    (seen.(1).(0) <> caller () && seen.(1).(0) = seen.(3).(0))

(* A lane failure at quantum k surfaces from [run] after the barrier,
   whichever worker owns the lane, and quantum k is never committed. *)
let pool_exceptions () =
  let k = 3 and quantum = 10 in
  List.iter
    (fun (jobs, bad) ->
      let lanes, _ =
        recording_lanes
          ~fail:(fun ~lane ~quantum -> lane = bad && quantum = k)
          ~lanes:4 ~quanta:6 ()
      in
      let committed = ref [] in
      let raised =
        match
          Quantum.run ~quantum (Quantum.Par { jobs }) ~lanes
            ~commit:(fun ~boundary -> committed := boundary :: !committed)
            ()
        with
        | _ -> None
        | exception Failure m -> Some m
      in
      let what = Printf.sprintf "jobs %d, lane %d" jobs bad in
      Alcotest.(check (option string))
        (what ^ ": run raises the lane's failure")
        (Some (Printf.sprintf "lane %d quantum %d" bad k))
        raised;
      Alcotest.(check (list int))
        (what ^ ": only quanta before k committed")
        (List.init k (fun q -> quantum * (k - q)))
        !committed)
    [ (2, 0); (2, 1); (3, 1); (3, 2) ]

(* Helpers are joined on every exit path. OCaml caps live domains at
   128, so a pool that leaked a helper per failing run would make
   [Domain.spawn] fail long before the last run. *)
let pool_no_leak () =
  for r = 1 to 300 do
    let failing = r mod 2 = 0 in
    let lanes, _ =
      recording_lanes
        ~fail:(fun ~lane ~quantum -> failing && lane = r mod 3 && quantum = 1)
        ~lanes:3 ~quanta:2 ()
    in
    let raised =
      match Quantum.run ~quantum:1 (Quantum.Par { jobs = 3 }) ~lanes () with
      | _ -> false
      | exception Failure _ -> true
    in
    if raised <> failing then
      Alcotest.failf "run %d: raised=%b, expected %b" r raised failing
  done

(* One job never leaves the caller; surplus jobs put the lanes on no more
   domains than there are lanes. *)
let pool_domain_count () =
  let lanes, seen = recording_lanes ~lanes:3 ~quanta:3 () in
  ignore (Quantum.run ~quantum:1 (Quantum.Par { jobs = 1 }) ~lanes ());
  Alcotest.(check bool) "jobs 1: every lane on the caller" true
    (Array.for_all (Array.for_all (( = ) (caller ()))) seen);
  let lanes, seen = recording_lanes ~lanes:2 ~quanta:3 () in
  ignore (Quantum.run ~quantum:1 (Quantum.Par { jobs = 5 }) ~lanes ());
  Alcotest.(check bool) "jobs 5 > 2 lanes: at most 2 domains" true
    (distinct_domains seen <= 2)

(* The --jobs replica harness must both pass on identical replicas and
   actually detect divergence. *)
let replica_harness () =
  let v =
    Sky_experiments.Par_harness.replicate ~jobs:3 ~render:string_of_int
      (fun () -> 41 + 1)
  in
  Alcotest.(check int) "identical replicas pass" 42 v;
  let diverged =
    let n = Atomic.make 0 in
    match
      Sky_experiments.Par_harness.replicate ~jobs:2 ~render:string_of_int
        (fun () -> Atomic.fetch_and_add n 1)
    with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "divergent replicas detected" true diverged

(* [run parallel]'s equivalence phase under an ambient MPK backend: each
   run it compares with the VMFUNC sequential run is built under VMFUNC
   too, so every check holds. *)
let equivalence_under_mpk () =
  let _, _, checks =
    Backend.with_default Backend.Mpk (fun () -> Sky_experiments.Exp_parallel.equivalence ~seed:42)
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) c.Sky_experiments.Exp_parallel.c_name true
        c.Sky_experiments.Exp_parallel.c_ok)
    checks

let () =
  let t name f = Alcotest.test_case name `Quick f in
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ("equivalence", qc [ seq_vs_par; quantum_invariance ]);
      ( "pool",
        [
          t "persistence" pool_persistence;
          t "exceptions" pool_exceptions;
          t "no leaked domains" pool_no_leak;
          t "domain count" pool_domain_count;
        ] );
      ( "anchors",
        [
          t "scale cluster digest" scale_anchor;
          t "replica harness" replica_harness;
          t "equivalence under MPK" equivalence_under_mpk;
        ] );
    ]
