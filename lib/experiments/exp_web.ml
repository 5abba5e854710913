(** Web serving: throughput vs worker count, SkyBridge vs slowpath IPC.

    For each worker count [w] in [1 .. cores], run the full stack —
    closed-loop load generator → RSS NIC → [w] skyhttpd workers → KV +
    xv6fs backends — twice: once with the worker→backend hop over
    SkyBridge direct server calls, once over the baseline kernel's
    synchronous IPC (MT-server, so every slowpath call at least takes
    the kernel's local path). The offered load (connections, request
    mix, seeds) is identical between the two, so the gap is pure
    interconnect cost — the paper's macro story (§6) played out at the
    application tier.

    Two structural properties are asserted by `skybench web` and the
    test suite: SkyBridge throughput strictly above slowpath IPC at
    every worker count, and SkyBridge throughput monotonically
    increasing with workers up to the core count. *)

open Sky_net
open Sky_harness

type side = {
  v_tput : float;  (** requests per simulated second *)
  v_p50 : int;
  v_p95 : int;
  v_p99 : int;
  v_responses : int;
  v_errors : int;
  v_elapsed : int;
  v_evictions : int;  (** EPTP-list LRU evictions, all worker processes *)
  v_worker_evictions : int list;  (** per worker process, core order *)
}

type point = { p_workers : int; p_sky : side; p_ipc : side }

type result = {
  r_seed : int;
  r_cores : int;
  r_conns : int;
  r_requests_per_conn : int;
  r_points : point list;
}

let side_of t =
  let lg = Web.loadgen t in
  let h = Loadgen.latencies lg in
  let worker_evictions =
    match Web.subkernel t with
    | None -> List.map (fun _ -> 0) (Array.to_list (Web.worker_procs t))
    | Some sb ->
      List.map
        (fun p -> Sky_core.Subkernel.process_evictions sb p)
        (Array.to_list (Web.worker_procs t))
  in
  let open Sky_trace.Histogram in
  {
    v_tput = Web.throughput t;
    v_p50 = p50 h;
    v_p95 = p95 h;
    v_p99 = p99 h;
    v_responses = Loadgen.responses lg;
    v_errors = Loadgen.errors lg;
    v_elapsed = Web.elapsed t;
    v_evictions = List.fold_left ( + ) 0 worker_evictions;
    v_worker_evictions = worker_evictions;
  }

let measure ~seed ~cores ~conns ~requests_per_conn ~workers transport =
  let t = Web.build ~seed ~cores ~conns ~requests_per_conn ~workers ~transport () in
  Web.run t;
  side_of t

let run_curve ?(seed = 42) ?(cores = 16) ?(conns = Web.default_conns)
    ?(requests_per_conn = Web.default_requests_per_conn) () =
  let point workers =
    let m = measure ~seed ~cores ~conns ~requests_per_conn ~workers in
    { p_workers = workers; p_sky = m Web.Skybridge; p_ipc = m Web.Ipc_slowpath }
  in
  {
    r_seed = seed;
    r_cores = cores;
    r_conns = conns;
    r_requests_per_conn = requests_per_conn;
    r_points = List.init cores (fun i -> point (i + 1));
  }

(* ---- the two acceptance properties ---- *)

let sky_always_ahead r =
  List.for_all (fun p -> p.p_sky.v_tput > p.p_ipc.v_tput) r.r_points

let sky_monotone r =
  let rec go = function
    | a :: (b :: _ as rest) -> a.p_sky.v_tput < b.p_sky.v_tput && go rest
    | _ -> true
  in
  go r.r_points

let all_served r =
  let want = r.r_conns * r.r_requests_per_conn in
  List.for_all
    (fun p ->
      p.p_sky.v_responses = want && p.p_sky.v_errors = 0
      && p.p_ipc.v_responses = want && p.p_ipc.v_errors = 0)
    r.r_points

(* ---- rendering ---- *)

(* The kernel {!Web} builds. *)
let variant = Sky_ukernel.Config.(variant_name Sel4)

let table r =
  Tbl.make
    ~title:
      (Printf.sprintf "Web serving on %s: throughput vs workers (%d conns)" variant
         r.r_conns)
    ~header:
      [
        "workers"; "sky req/s"; "sky p50"; "sky p99"; "ipc req/s"; "ipc p50";
        "ipc p99"; "speedup";
      ]
    ~notes:
      [
        Printf.sprintf
          "closed-loop, %d requests/conn, RSS over one queue per worker"
          r.r_requests_per_conn;
        "latency = wire-to-wire cycles per request, including queueing";
      ]
    (List.map
       (fun p ->
         [
           string_of_int p.p_workers;
           Tbl.fmt_ops p.p_sky.v_tput;
           Tbl.fmt_int p.p_sky.v_p50;
           Tbl.fmt_int p.p_sky.v_p99;
           Tbl.fmt_ops p.p_ipc.v_tput;
           Tbl.fmt_int p.p_ipc.v_p50;
           Tbl.fmt_int p.p_ipc.v_p99;
           Tbl.fmt_speedup (p.p_sky.v_tput /. p.p_ipc.v_tput);
         ])
       r.r_points)

let to_json r =
  let open Sky_trace.Json in
  let side v =
    Obj
      [
        ("throughput_req_per_sec", Float v.v_tput);
        ("p50_cycles", Int v.v_p50);
        ("p95_cycles", Int v.v_p95);
        ("p99_cycles", Int v.v_p99);
        ("responses", Int v.v_responses);
        ("errors", Int v.v_errors);
        ("elapsed_cycles", Int v.v_elapsed);
        ("evictions", Int v.v_evictions);
        ("worker_evictions", List (List.map (fun n -> Int n) v.v_worker_evictions));
      ]
  in
  to_string
    (Obj
       [
         ("bench", String "web");
         ("variant", String variant);
         ("seed", Int r.r_seed);
         ("cores", Int r.r_cores);
         ("conns", Int r.r_conns);
         ("requests_per_conn", Int r.r_requests_per_conn);
         ( "points",
           List
             (List.map
                (fun p ->
                  Obj
                    [
                      ("workers", Int p.p_workers);
                      ("skybridge", side p.p_sky);
                      ("slowpath_ipc", side p.p_ipc);
                      ( "speedup",
                        Float (p.p_sky.v_tput /. p.p_ipc.v_tput) );
                    ])
                r.r_points) );
         ("sky_beats_slowpath", Bool (sky_always_ahead r));
         ("monotone_scaling", Bool (sky_monotone r));
         ("all_served", Bool (all_served r));
       ])

let outcome r =
  Outcome.make
    ~checks:
      [
        ("all_served", all_served r);
        ("sky_always_ahead", sky_always_ahead r);
        ("sky_monotone", sky_monotone r);
      ]
    (table r) (to_json r)

(* Registry entry: the small configuration CI gates and BENCH_web.json
   records, so `skybench run all` stays fast; `skybench web` defaults to
   the full 16-core curve. *)
let run (_ : Budget.t) =
  outcome (run_curve ~cores:4 ~conns:24 ~requests_per_conn:2 ())
