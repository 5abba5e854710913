(** The static metric registry: every metric the benchmark prints, with
    its unit, direction, and — for per-layer metrics — the library it
    measures and the end-to-end metric it should move.
    [test_skyperf] checks that BENCHMARK.json lists exactly these names,
    units, directions and bounds. *)

type better = Higher | Lower

type kind =
  | End_to_end of { bound : float }
      (** share of the baseline median the metric may worsen by *)
  | Per_layer of { layer : string; moves : string }
      (** [moves]: the end-to-end metric and workload it should move *)

type t = { name : string; unit_ : string; better : better; kind : kind }

let better_name = function Higher -> "higher" | Lower -> "lower"

let e2e name unit_ better bound = { name; unit_; better; kind = End_to_end { bound } }

let layer ~layer ~moves name unit_ better =
  { name; unit_; better; kind = Per_layer { layer; moves } }

(* Bounds: host metrics get the widest bounds the same-host noise
   allows; simulated metrics are deterministic per seed, so their bound
   only has to absorb seed-to-seed variation. [setup_s] has the largest
   bound: it is the noisiest host metric, and its bound is what makes
   work moved into set-up visible. *)
let end_to_end =
  [
    e2e "sim_ops_per_s" "ops/s" Higher 0.20;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MiB" Lower 0.20;
    e2e "minor_words_per_op" "words/op" Lower 0.05;
    e2e "sim_cycles_per_op" "sim_cycles" Lower 0.05;
    e2e "sim_latency_p50_cycles" "sim_cycles" Lower 0.20;
    e2e "sim_latency_p99_cycles" "sim_cycles" Lower 0.20;
    e2e "sim_latency_p999_cycles" "sim_cycles" Lower 0.20;
    e2e "goodput_frac" "fraction" Higher 0.05;
  ]

let sim = layer ~layer:"sky_sim"
let pmu = layer ~layer:"sky_sim.pmu"
let net = layer ~layer:"sky_net"

let per_layer =
  [
    sim "sim.l1d_miss_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on calls, web";
    sim "sim.l2_miss_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on calls, web";
    sim "sim.l3_miss_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on calls, web";
    sim "sim.dtlb_miss_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on calls, web";
    sim "sim.itlb_miss_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on calls, web";
    sim "sim.psc_hit_ratio" "ratio" Higher ~moves:"sim_cycles_per_op on calls";
    sim "sim.ept_wc_hit_ratio" "ratio" Higher ~moves:"sim_cycles_per_op on calls";
    sim "sim.hot_line_hits_per_op" "count/op" Higher
      ~moves:"sim_cycles_per_op and sim_ops_per_s on calls";
    sim "sim.walk_cycles_per_op" "sim_cycles" Lower ~moves:"sim_cycles_per_op on calls";
    pmu "pmu.vmfunc_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on all";
    pmu "pmu.wrpkru_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on all";
    pmu "pmu.syscall_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on all";
    pmu "pmu.cr3_write_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on all";
    pmu "pmu.ipi_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on all";
    pmu "pmu.ipc_roundtrip_per_op" "count/op" Lower ~moves:"sim_cycles_per_op on all";
    layer ~layer:"sky_core" "calls.vmfunc.cycles_per_call" "sim_cycles" Lower
      ~moves:"sim_cycles_per_op on calls";
    layer ~layer:"sky_core" "calls.mpk.cycles_per_call" "sim_cycles" Lower
      ~moves:"sim_cycles_per_op on calls";
    layer ~layer:"sky_core" "calls.syscall.cycles_per_call" "sim_cycles" Lower
      ~moves:"sim_cycles_per_op on calls";
    layer ~layer:"sky_kernels" "calls.ipc.cycles_per_call" "sim_cycles" Lower
      ~moves:"sim_cycles_per_op on calls";
    layer ~layer:"sky_core" "core.crossings_per_op" "count/op" Lower
      ~moves:"sim_cycles_per_op on web, overload";
    layer ~layer:"sky_core" "core.degraded_calls" "count" Lower
      ~moves:"sim_cycles_per_op on web, overload";
    layer ~layer:"sky_mesh" "mesh.resolves_per_op" "count/op" Lower
      ~moves:"sim_cycles_per_op on web";
    layer ~layer:"sky_mesh" "mesh.cache_hit_ratio" "ratio" Higher
      ~moves:"sim_cycles_per_op on web";
    layer ~layer:"sky_kernels" "kernels.ep_note_signals_per_wait" "count" Lower
      ~moves:"sim_ops_per_s and minor_words_per_op on web, overload, cluster";
    layer ~layer:"sky_kernels" "kernels.ep_note_ipis_per_op" "count/op" Lower
      ~moves:"sim_ops_per_s and minor_words_per_op on web, overload, cluster";
    net "net.rx_pkts_per_op" "count/op" Lower ~moves:"sim_latency_p99_cycles on web";
    net "net.irqs_per_op" "count/op" Lower ~moves:"sim_latency_p99_cycles on web";
    net "net.nic_dropped" "count" Lower ~moves:"sim_latency_p99_cycles on web";
    net "httpd.steals_per_op" "count/op" Lower ~moves:"sim_latency_p99_cycles on web";
    net "httpd.shed_queue_frac" "fraction" Lower
      ~moves:"goodput_frac and sim_latency_p999_cycles on overload";
    net "httpd.shed_expired_frac" "fraction" Lower
      ~moves:"goodput_frac and sim_latency_p999_cycles on overload";
    net "httpd.ops_per_batch" "count" Higher
      ~moves:"goodput_frac, sim_latency_p999_cycles, sim_cycles_per_op on overload";
    net "openloop.churns" "count" Lower
      ~moves:"goodput_frac and sim_latency_p999_cycles on overload";
    sim "quantum.quanta_per_round" "count" Lower ~moves:"quantum.par_speedup on cluster";
    layer ~layer:"ocaml_gc" "gc.minor_collections_per_op" "count/op" Lower
      ~moves:"sim_ops_per_s on all; quantum.par_speedup on cluster";
    layer ~layer:"ocaml_gc" "gc.promoted_words_per_op" "words/op" Lower
      ~moves:"sim_ops_per_s on all; quantum.par_speedup on cluster";
    layer ~layer:"ocaml_gc" "gc.major_collections_per_round" "count" Lower
      ~moves:"sim_ops_per_s on all; quantum.par_speedup on cluster";
    (* host time, from the traced run only *)
    layer ~layer:"sky_mmu" "host.mmu.translate_ns" "ns" Lower ~moves:"sim_ops_per_s on calls";
    layer ~layer:"sky_core" "host.core.direct_call_self_ns" "ns" Lower
      ~moves:"sim_ops_per_s on calls";
    layer ~layer:"sky_kernels" "host.kernels.ipc_call_self_ns" "ns" Lower
      ~moves:"sim_ops_per_s on calls";
    layer ~layer:"bench" "host.handler_ns" "ns" Lower ~moves:"sim_ops_per_s on calls";
    layer ~layer:"sky_net" "host.net.httpd_step_p50_ns" "ns" Lower
      ~moves:"sim_ops_per_s on web, overload";
    layer ~layer:"sky_net" "host.net.httpd_step_p99_ns" "ns" Lower
      ~moves:"sim_ops_per_s on web, overload";
    layer ~layer:"sky_net" "host.net.httpd_ns_per_op" "ns" Lower
      ~moves:"sim_ops_per_s on web, overload";
    layer ~layer:"sky_net" "host.net.openloop_step_ns" "ns" Lower
      ~moves:"sim_ops_per_s on overload";
    layer ~layer:"sky_sim" "host.sim.sched_self_ns_per_step" "ns" Lower
      ~moves:"sim_ops_per_s on web, overload";
    layer ~layer:"sky_sim" "sim.steps_per_op" "count/op" Lower
      ~moves:"sim_ops_per_s on web, overload";
    layer ~layer:"sky_sim" "sim.progress_step_ratio" "ratio" Higher
      ~moves:"sim_ops_per_s on web, overload";
    layer ~layer:"sky_sim" "host.quantum.lane_advance_ns" "ns" Lower
      ~moves:"quantum.par_speedup on cluster";
    layer ~layer:"sky_sim" "host.quantum.barrier_wait_ns" "ns" Lower
      ~moves:"quantum.par_speedup on cluster";
    layer ~layer:"sky_sim" "host.quantum.imbalance" "x" Lower
      ~moves:"quantum.par_speedup on cluster";
    layer ~layer:"sky_sim" "quantum.par_speedup" "x" Higher ~moves:"sim_ops_per_s on cluster";
    layer ~layer:"bench" "host.setup.build_s" "s" Lower ~moves:"setup_s on all";
    layer ~layer:"bench" "trace.overhead_frac" "fraction" Lower ~moves:"none (tracing cost)";
  ]

let all = end_to_end @ per_layer

let find name = List.find_opt (fun m -> m.name = name) all

let is_end_to_end m = match m.kind with End_to_end _ -> true | Per_layer _ -> false

(** The name grammar BENCHMARK.json accepts: 1–64 of [A-Za-z0-9_.-],
    starting with a letter or digit. *)
let name_ok s =
  let n = String.length s in
  let alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  n >= 1 && n <= 64
  && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s
