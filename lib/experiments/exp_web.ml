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

    Two structural properties are asserted by `skybench run web` and
    the test suite: SkyBridge throughput strictly above slowpath IPC at
    every worker count, and SkyBridge throughput monotonically
    increasing with workers up to the core count. *)

open Sky_net
open Sky_harness

let seed = 42

(* The kernel {!Web} builds. *)
let variant = Sky_ukernel.Config.(variant_name Sel4)

(* One run's payload: throughput, latency, and the EPTP-list LRU
   evictions of every worker process, in core order. *)
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
  let open Sky_trace.Json in
  Obj
    [
      ("throughput_req_per_sec", Float (Web.throughput t));
      ("p50_cycles", Int (Sky_trace.Histogram.p50 h));
      ("p95_cycles", Int (Sky_trace.Histogram.p95 h));
      ("p99_cycles", Int (Sky_trace.Histogram.p99 h));
      ("responses", Int (Loadgen.responses lg));
      ("errors", Int (Loadgen.errors lg));
      ("elapsed_cycles", Int (Web.elapsed t));
      ("evictions", Int (List.fold_left ( + ) 0 worker_evictions));
      ("worker_evictions", List (List.map (fun n -> Int n) worker_evictions));
    ]

let measure ~cores ~conns ~requests_per_conn ~workers transport =
  let t = Web.build ~seed ~cores ~conns ~requests_per_conn ~workers ~transport () in
  Web.run t;
  side_of t

(* ---- the acceptance properties, over the payload ---- *)

let points r = Outcome.list r "points"
let tput side = Outcome.float side "throughput_req_per_sec"
let sky p = Outcome.field p "skybridge"
let ipc p = Outcome.field p "slowpath_ipc"
let sky_always_ahead r = List.for_all (fun p -> tput (sky p) > tput (ipc p)) (points r)

let sky_monotone r =
  let rec go = function
    | a :: (b :: _ as rest) -> tput (sky a) < tput (sky b) && go rest
    | _ -> true
  in
  go (points r)

let all_served r =
  let want = Outcome.(int r "conns" * int r "requests_per_conn") in
  List.for_all
    (fun p ->
      List.for_all
        (fun side -> Outcome.(int side "responses" = want && int side "errors" = 0))
        [ sky p; ipc p ])
    (points r)

let run_curve ~cores ~conns ~requests_per_conn =
  let open Sky_trace.Json in
  let point workers =
    let m transport = measure ~cores ~conns ~requests_per_conn ~workers transport in
    let sky = m Web.Skybridge in
    let ipc = m Web.Ipc_slowpath in
    Obj
      [
        ("workers", Int workers);
        ("skybridge", sky);
        ("slowpath_ipc", ipc);
        ("speedup", Float (tput sky /. tput ipc));
      ]
  in
  let fields =
    [
      ("bench", String "web");
      ("variant", String variant);
      ("seed", Int seed);
      ("cores", Int cores);
      ("conns", Int conns);
      ("requests_per_conn", Int requests_per_conn);
      ("points", List (List.init cores (fun i -> point (i + 1))));
    ]
  in
  let r = Obj fields in
  Obj
    (fields
    @ [
        ("sky_beats_slowpath", Bool (sky_always_ahead r));
        ("monotone_scaling", Bool (sky_monotone r));
        ("all_served", Bool (all_served r));
      ])

(* ---- rendering ---- *)

let table r =
  Tbl.make
    ~title:
      (Printf.sprintf "Web serving on %s: throughput vs workers (%d conns)" variant
         (Outcome.int r "conns"))
    ~header:
      [
        "workers"; "sky req/s"; "sky p50"; "sky p99"; "ipc req/s"; "ipc p50";
        "ipc p99"; "speedup";
      ]
    ~notes:
      [
        Printf.sprintf
          "closed-loop, %d requests/conn, RSS over one queue per worker"
          (Outcome.int r "requests_per_conn");
        "latency = wire-to-wire cycles per request, including queueing";
      ]
    (List.map
       (fun p ->
         let s = sky p and i = ipc p in
         Outcome.
           [
             string_of_int (int p "workers");
             Tbl.fmt_ops (tput s);
             Tbl.fmt_int (int s "p50_cycles");
             Tbl.fmt_int (int s "p99_cycles");
             Tbl.fmt_ops (tput i);
             Tbl.fmt_int (int i "p50_cycles");
             Tbl.fmt_int (int i "p99_cycles");
             Tbl.fmt_speedup (float p "speedup");
           ])
       (points r))

let outcome r =
  Outcome.make
    ~checks:
      [
        ("all_served", all_served r);
        ("sky_always_ahead", sky_always_ahead r);
        ("sky_monotone", sky_monotone r);
      ]
    (table r) r

(* Registry entry: the small configuration CI gates and BENCH_web.json
   records, so `skybench run all` stays fast; test_experiments checks the
   full 16-core curve. *)
let run (_ : Budget.t) =
  outcome (run_curve ~cores:4 ~conns:24 ~requests_per_conn:2)
