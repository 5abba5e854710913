(** skyperf: the host cost of the simulator, end to end and per layer.

    {v
    skyperf run --workload W --seed S [--seconds N] [--trace FILE]
    skyperf compare A.jsonl B.jsonl
    v}

    [run] does one discarded warm-up round (seed S), then measured
    rounds with seeds S+1, S+2, ... until [--seconds] of measurement
    have passed and at least the workload's [sample_rounds] rounds ran. Every round
    builds a fresh stack. Host metrics are medians over the measured
    rounds; simulated metrics and layer counters come from the first
    [sample_rounds] rounds, so they depend only on the seed.

    It prints two JSON lines: a run record with every metric computed
    (with quartiles and round counts for host metrics), the checks and
    the per-round simulated digests; then the result line, with every
    end-to-end metric, or with [--trace] every per-layer metric. With
    [--trace], each measured round runs a second time with spans around
    every layer call, the spans are written to FILE as Chrome
    [trace_event] JSON, per-layer self times go to stderr, and the
    traced round's simulated digest must equal the untraced one's.
    Exit status: 0 iff every correctness check held. *)

open Skyperf_lib
module W = Workloads
module Json = Sky_trace.Json

let max_rounds = 1000
let trace_capacity = 200_000
let default_seconds = 20 (* BENCHMARK.json's run_seconds *)

type measured = {
  seed : int;
  untraced : W.round * W.meter;
  traced : (W.round * W.meter) option;
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let measure_rounds (w : W.t) ~seed ~seconds ~spans =
  (* Between rounds: a full major GC, so no round's garbage reaches the
     next one or the reference, then a reference reading. A round is
     scaled by the mean of the readings on either side of it. *)
  let reference () =
    Gc.full_major ();
    Hostref.time ()
  in
  let last_ref = ref (reference ()) in
  let round ~seed tr =
    let m = W.meter () in
    let r = w.round m ~seed ~tr in
    let ref_ns = reference () in
    m.W.ref_ns <- (!last_ref + ref_ns) / 2;
    last_ref := ref_ns;
    (r, m)
  in
  ignore (round ~seed None);
  let t0 = Spans.now () in
  (* Peak memory is read once the sample rounds are done: a fixed amount
     of work, whatever the host's speed lets the rest of the run add. *)
  let rss = ref 0.0 in
  let rec go i acc =
    let untraced = round ~seed:(seed + i) None in
    let traced =
      Option.map
        (fun sp ->
          Spans.set_round sp i;
          round ~seed:(seed + i) (Some sp))
        spans
    in
    let acc = { seed = seed + i; untraced; traced } :: acc in
    if i = w.W.sample_rounds then rss := peak_rss_mb ();
    let timed_out = Spans.now () - t0 >= seconds * 1_000_000_000 || i >= max_rounds in
    if i >= w.W.sample_rounds && timed_out then List.rev acc else go (i + 1) acc
  in
  let ms = go 1 [] in
  (ms, !rss)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fsum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = float_of_int (List.fold_left (fun a x -> a + f x) 0 l)

(* Per-round ops per host second and set-up seconds, as measured and
   scaled to the nominal host speed. *)
let raw_ops_per_s ((r : W.round), (m : W.meter)) =
  float_of_int r.W.ops /. (float_of_int m.W.run_ns *. 1e-9)

let raw_setup_s (_, (m : W.meter)) = float_of_int (List.fold_left ( + ) 0 m.W.setup_ns) *. 1e-9
let ops_per_s ((_, m) as x) = raw_ops_per_s x /. Hostref.scale ~ref_ns:m.W.ref_ns
let setup_s ((_, m) as x) = raw_setup_s x *. Hostref.scale ~ref_ns:m.W.ref_ns

(* Every metric the run can compute, plus quartiles for the host
   medians. *)
let compute (w : W.t) ~spans ~rss ms =
  let untraced = List.map (fun x -> x.untraced) ms in
  let traced = List.filter_map (fun x -> x.traced) ms in
  let sample = List.filteri (fun i _ -> i < w.W.sample_rounds) (List.map fst untraced) in
  let counters = W.sum_counters (List.map (fun r -> r.W.counters) sample) in
  let c k = float_of_int (Option.value ~default:0 (List.assoc_opt k counters)) in
  let ops = isum (fun r -> r.W.ops) sample in
  let per_op k = ratio (c k) ops in
  let per_round k = c k /. float_of_int (List.length sample) in
  let lat = W.merge_latency (List.map (fun r -> r.W.lat) sample) in
  let spread = ref [] in
  let median name xs =
    let q1, _, q3 = Stats.quartiles xs in
    spread := (name, (q1, q3, Array.length xs)) :: !spread;
    Stats.median xs
  in
  let host_rounds f = Array.of_list (List.map f untraced) in
  let gc_ops = isum (fun (r, _) -> r.W.gc_ops) untraced in
  let gc f = ratio (fsum (fun (_, m) -> f m) untraced) gc_ops in
  let ops_med = median "sim_ops_per_s" (host_rounds ops_per_s) in
  let setup_med = median "setup_s" (host_rounds setup_s) in
  let raw =
    [
      ("sim_ops_per_s", Stats.median (host_rounds raw_ops_per_s));
      ("setup_s", Stats.median (host_rounds raw_setup_s));
      ("host.ref_ms", Stats.median (host_rounds (fun (_, m) -> float_of_int m.W.ref_ns *. 1e-6)));
    ]
  in
  let end_to_end =
    [
      ("sim_ops_per_s", ops_med);
      ("setup_s", setup_med);
      ("peak_rss_mb", rss);
      ("minor_words_per_op", gc (fun m -> m.W.minor_words));
      ( "sim_cycles_per_op",
        ratio (isum (fun r -> r.W.sim_cycles) sample) (isum (fun r -> r.W.sim_ops) sample) );
      ("sim_latency_p50_cycles", W.latency_percentile lat ~p:50.0);
      ("sim_latency_p99_cycles", W.latency_percentile lat ~p:99.0);
      ("sim_latency_p999_cycles", W.latency_percentile lat ~p:99.9);
      ("goodput_frac", ratio (isum (fun r -> r.W.ok) sample) ops);
    ]
  in
  let calls_cycles t =
    ratio (c (Printf.sprintf "calls.%s.cycles" t))
      (float_of_int (W.calls_measured * List.length sample))
  in

  let counters =
    [
      ("sim.l1d_miss_per_op", per_op "l1d_miss");
      ("sim.l2_miss_per_op", per_op "l2_miss");
      ("sim.l3_miss_per_op", per_op "l3_miss");
      ("sim.dtlb_miss_per_op", per_op "dtlb_miss");
      ("sim.itlb_miss_per_op", per_op "itlb_miss");
      ("sim.psc_hit_ratio", ratio (c "psc_hit") (c "psc_hit" +. c "psc_miss"));
      ( "sim.ept_wc_hit_ratio",
        ratio (c "ept_walk_cache_hit") (c "ept_walk_cache_hit" +. c "ept_walk_cache_miss") );
      ("sim.hot_line_hits_per_op", per_op "hot_line_hit");
      ("sim.walk_cycles_per_op", per_op "walk_cycles");
      ("pmu.vmfunc_per_op", per_op "vmfunc");
      ("pmu.wrpkru_per_op", per_op "wrpkru");
      ("pmu.syscall_per_op", per_op "syscall");
      ("pmu.cr3_write_per_op", per_op "cr3_write");
      ("pmu.ipi_per_op", per_op "ipi_sent");
      ("pmu.ipc_roundtrip_per_op", per_op "ipc_roundtrip");
      ("calls.vmfunc.cycles_per_call", calls_cycles "vmfunc");
      ("calls.mpk.cycles_per_call", calls_cycles "mpk");
      ("calls.syscall.cycles_per_call", calls_cycles "syscall");
      ("calls.ipc.cycles_per_call", calls_cycles "ipc");
      ("core.crossings_per_op", per_op "crossings");
      ("core.degraded_calls", c "degraded");
      ("mesh.resolves_per_op", per_op "resolves");
      ("mesh.cache_hit_ratio", ratio (c "cache_hits") (c "cache_hits" +. c "resolves"));
      ("kernels.ep_note_signals_per_wait", ratio (c "note_signals") (c "note_waits"));
      ("kernels.ep_note_ipis_per_op", per_op "note_ipis");
      ("net.rx_pkts_per_op", per_op "rx_pkts");
      ("net.irqs_per_op", per_op "irqs");
      ("net.nic_dropped", c "nic_dropped");
      ("httpd.steals_per_op", per_op "steals");
      ("httpd.shed_queue_frac", per_op "shed_queue");
      ("httpd.shed_expired_frac", per_op "shed_expired");
      ("httpd.ops_per_batch", ratio (c "batched_ops") (c "batches"));
      ("openloop.churns", per_round "churns");
      ("quantum.quanta_per_round", per_round "quanta");
      ("gc.minor_collections_per_op", gc (fun m -> float_of_int m.W.minor_gcs));
      ("gc.promoted_words_per_op", gc (fun m -> m.W.promoted_words));
      ( "gc.major_collections_per_round",
        fsum (fun (_, m) -> float_of_int m.W.major_gcs) untraced
        /. float_of_int (List.length untraced) );
      (* same-round ratios cancel the host's drift *)
      ( "quantum.par_speedup",
        median "quantum.par_speedup"
          (host_rounds (fun (_, m) -> ratio (float_of_int m.W.seq_ns) (float_of_int m.W.run_ns)))
      );
      ("host.setup.build_s", setup_med);
    ]
  in
  let host =
    match spans with
    | None -> []
    | Some sp ->
      let h k =
        fsum (fun (r, _) -> Option.value ~default:0.0 (List.assoc_opt k r.W.host)) traced
      in
      let med k =
        match List.filter_map (fun (r, _) -> List.assoc_opt k r.W.host) traced with
        | [] -> 0.0
        | xs -> Stats.median (Array.of_list xs)
      in
      let tops = isum (fun (r, _) -> r.W.ops) traced in
      let steps = h "steps" in
      let overhead =
        List.filter_map
          (fun x ->
            Option.map (fun t -> 1.0 -. (raw_ops_per_s t /. raw_ops_per_s x.untraced)) x.traced)
          ms
      in
      [
        ("host.mmu.translate_ns", Spans.total_per sp "mmu.translate");
        ("host.core.direct_call_self_ns", Spans.self_per sp "core.direct_call");
        ("host.kernels.ipc_call_self_ns", Spans.self_per sp "kernels.ipc_call");
        ("host.handler_ns", Spans.total_per sp "handler");
        ("host.net.httpd_step_p50_ns", med "httpd_step_p50_ns");
        ("host.net.httpd_step_p99_ns", med "httpd_step_p99_ns");
        ( "host.net.httpd_ns_per_op",
          ratio (float_of_int (Spans.layer sp "net.httpd_step").Spans.l_total_ns) tops );
        ("host.net.openloop_step_ns", Spans.total_per sp "net.openloop_step");
        ( "host.sim.sched_self_ns_per_step",
          ratio (float_of_int (Spans.layer sp "sim.run_loop").Spans.l_self_ns) steps );
        ("sim.steps_per_op", ratio steps tops);
        ("sim.progress_step_ratio", ratio (h "progress_steps") steps);
        ("host.quantum.lane_advance_ns", Spans.total_per sp "quantum.lane_advance");
        ("host.quantum.barrier_wait_ns", ratio (h "barrier_wait_ns_sum") (h "quanta"));
        ("host.quantum.imbalance", ratio (h "imbalance_sum") (h "quanta"));
        ("trace.overhead_frac", median "trace.overhead_frac" (Array.of_list overhead));
      ]
  in
  (end_to_end @ counters @ host, List.rev !spread, raw, W.latency_count lat)

let checks ms ~samples values ~traced =
  let all =
    List.concat_map
      (fun x -> (fst x.untraced).W.checks @ Option.fold ~none:[] ~some:(fun (r, _) -> r.W.checks) x.traced)
      ms
  in
  let names = List.sort_uniq compare (List.map fst all) in
  List.map (fun n -> (n, List.for_all (fun (k, ok) -> k <> n || ok) all)) names
  @ (if traced then
       [
         ( "trace.digest_eq_untraced",
           List.for_all
             (fun x ->
               match x.traced with
               | Some (t, _) -> t.W.digest = (fst x.untraced).W.digest
               | None -> false)
             ms );
       ]
     else [])
  @ [
      ("sim.p999_has_10_beyond", Stats.tail_ok ~n:samples ~p:99.9);
      ("metrics.complete", Report.missing ~end_to_end:(not traced) values = []);
      ("metrics.finite", List.for_all (fun (_, v) -> Float.is_finite v) values);
    ]

let print_self_times sp =
  Printf.eprintf "%-24s %10s %14s %14s %12s\n" "span" "count" "total_ms" "self_ms"
    "self_ns/span";
  List.iter
    (fun (l : Spans.layer) ->
      Printf.eprintf "%-24s %10d %14.3f %14.3f %12.1f\n" l.Spans.l_name l.Spans.l_count
        (float_of_int l.Spans.l_total_ns *. 1e-6)
        (float_of_int l.Spans.l_self_ns *. 1e-6)
        (Spans.self_per sp l.Spans.l_name))
    (Spans.layers sp);
  Printf.eprintf "spans recorded %d, dropped %d (buffer %d)\n%!" (Spans.recorded sp)
    (Spans.dropped sp) trace_capacity

let run ~(w : W.t) ~seed ~seconds ~trace =
  let tracer = Option.map (fun file -> (file, Spans.create ~cap:trace_capacity)) trace in
  let spans = Option.map snd tracer in
  let ms, rss = measure_rounds w ~seed ~seconds ~spans in
  let values, spread, raw, samples = compute w ~spans ~rss ms in
  let traced = spans <> None in
  let checks = checks ms ~samples values ~traced in
  let rounds =
    List.map (fun x -> fst x.untraced) ms @ List.filter_map (fun x -> Option.map fst x.traced) ms
  in
  let attempted = List.fold_left (fun a r -> a + r.W.ops) 0 rounds in
  let failed = List.fold_left (fun a r -> a + r.W.wrong) 0 rounds in
  Option.iter
    (fun (file, sp) ->
      Spans.write_chrome sp file;
      print_self_times sp)
    tracer;
  let finite v = if Float.is_finite v then v else 0.0 in
  let metric (name, v) =
    let extra =
      match List.assoc_opt name spread with
      | Some (q1, q3, n) ->
        [ ("q1", Json.Float q1); ("q3", Json.Float q3); ("rounds", Json.Int n) ]
      | None -> []
    in
    let extra =
      match List.assoc_opt name raw with
      | Some v -> extra @ [ ("unscaled", Json.Float v) ]
      | None -> extra
    in
    Report.value_json name (finite v) extra
  in
  let record =
    Json.Obj
      [
        ("skyperf", Json.String "run");
        ("workload", Json.String w.W.name);
        ("seed", Json.Int seed);
        ("seconds", Json.Int seconds);
        ("traced", Json.Bool traced);
        ("rounds", Json.Int (List.length ms));
        ("sample_rounds", Json.Int w.W.sample_rounds);
        ("round_seeds", Json.List (List.map (fun x -> Json.Int x.seed) ms));
        ( "round_ops_per_s",
          Json.List (List.map (fun x -> Json.Float (raw_ops_per_s x.untraced)) ms) );
        ( "round_ref_ms",
          Json.List
            (List.map (fun x -> Json.Float (float_of_int (snd x.untraced).W.ref_ns *. 1e-6)) ms)
        );
        ( "host",
          Json.Obj
            [
              ("nproc", Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Json.String Sys.ocaml_version);
              ("word_size", Json.Int Sys.word_size);
              ("ref_ms", Json.Float (List.assoc "host.ref_ms" raw));
              ("ref_nominal_ms", Json.Float (float_of_int Hostref.nominal_ns *. 1e-6));
            ] );
        ("metrics", Json.Obj (List.map metric values));
        ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) checks));
        ("digests", Json.List (List.map (fun x -> Json.String (fst x.untraced).W.digest) ms));
        ( "trace",
          match tracer with
          | Some (file, sp) ->
            Json.Obj
              [
                ("file", Json.String file);
                ("recorded", Json.Int (Spans.recorded sp));
                ("dropped", Json.Int (Spans.dropped sp));
                ( "self_ns",
                  Json.Obj
                    (List.map
                       (fun (l : Spans.layer) ->
                         ( l.Spans.l_name,
                           Json.Obj
                             [
                               ("count", Json.Int l.Spans.l_count);
                               ("total_ns", Json.Int l.Spans.l_total_ns);
                               ("self_ns", Json.Int l.Spans.l_self_ns);
                             ] ))
                       (Spans.layers sp)) );
              ]
          | None -> Json.Null );
      ]
  in
  print_endline (Json.to_string record);
  List.iter (fun (n, ok) -> if not ok then Printf.eprintf "CHECK FAILED: %s\n" n) checks;
  print_endline
    (Report.result_line ~end_to_end:(not traced) ~checks ~attempted ~failed
       (List.map (fun (n, v) -> (n, finite v)) values));
  Report.exit_code checks

let usage =
  "usage: skyperf run --workload W --seed S [--seconds N] [--trace FILE]\n\
  \       skyperf compare A.jsonl B.jsonl\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.W.name) W.all)

let fail msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
    let rec flags acc = function
      | k :: v :: rest when String.starts_with ~prefix:"--" k -> flags ((k, v) :: acc) rest
      | [] -> acc
      | a :: _ -> fail ("skyperf: unexpected argument " ^ a)
    in
    let fl = flags [] args in
    List.iter
      (fun (k, _) ->
        if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace" ]) then
          fail ("skyperf: unknown flag " ^ k))
      fl;
    let int k default =
      match List.assoc_opt k fl with
      | None -> ( match default with Some d -> d | None -> fail ("skyperf: missing " ^ k))
      | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> fail ("skyperf: bad " ^ k ^ " " ^ v))
    in
    let w =
      match Option.bind (List.assoc_opt "--workload" fl) W.find with
      | Some w -> w
      | None -> fail "skyperf: missing or unknown --workload"
    in
    let seed = int "--seed" None and seconds = int "--seconds" (Some default_seconds) in
    if seconds < 1 then fail "skyperf: --seconds must be >= 1";
    exit (run ~w ~seed ~seconds ~trace:(List.assoc_opt "--trace" fl))
  | [ "compare"; a; b ] ->
    let rows = Compare.rows (Compare.load a) (Compare.load b) in
    Compare.print rows;
    exit (Compare.exit_code rows)
  | _ -> fail "skyperf: expected a subcommand"
