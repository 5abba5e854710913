(* Tests for the lib/trace subsystem: histogram math, the JSON
   writer/parser pair, span recording and aggregation, the Chrome
   exporter's output (parsed back and checked for Figure-7 category
   coverage), tracing-on/off cycle determinism, and the Breakdown
   accounting record the tracer complements. *)

open Sky_trace
open Sky_ukernel
open Sky_kernels

(* Every test drives the global tracer; make each one start clean. *)
let fresh () =
  Trace.disable ();
  Trace.clear ()

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_hist_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check int) "p50" 0 (Histogram.p50 h);
  Alcotest.(check int) "p99" 0 (Histogram.p99 h);
  Alcotest.(check int) "max" 0 (Histogram.max_value h)

let test_hist_single () =
  let h = Histogram.create () in
  Histogram.add h 396;
  Alcotest.(check int) "count" 1 (Histogram.count h);
  Alcotest.(check int) "max exact" 396 (Histogram.max_value h);
  Alcotest.(check int) "min exact" 396 (Histogram.min_value h);
  (* Every quantile of a single sample is that sample, up to bucket
     resolution (<= 12.5% with 8 sub-buckets); the top quantiles clamp
     to the exact max. *)
  Alcotest.(check int) "p99 = max" 396 (Histogram.p99 h);
  let p50 = Histogram.p50 h in
  Alcotest.(check bool) "p50 within bucket" true (p50 >= 396 && p50 <= 448)

let test_hist_quantiles () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add h v
  done;
  let within name expected actual =
    let err =
      Float.abs (float_of_int (actual - expected)) /. float_of_int expected
    in
    if err > 0.13 then
      Alcotest.failf "%s: expected ~%d, got %d (err %.3f)" name expected actual err
  in
  within "p50" 500 (Histogram.p50 h);
  within "p95" 950 (Histogram.p95 h);
  within "p99" 990 (Histogram.p99 h);
  Alcotest.(check int) "max exact" 1000 (Histogram.max_value h);
  Alcotest.(check (float 0.001)) "mean exact" 500.5 (Histogram.mean h)

let test_hist_small_values_exact () =
  (* Values below the sub-bucket count land in exact unit buckets. *)
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check int) "p50 of 0..7" 3 (Histogram.p50 h);
  Alcotest.(check int) "min" 0 (Histogram.min_value h)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for v = 1 to 100 do
    Histogram.add a v
  done;
  for v = 901 to 1000 do
    Histogram.add b v
  done;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "count" 200 (Histogram.count a);
  Alcotest.(check int) "max" 1000 (Histogram.max_value a);
  Alcotest.(check int) "min" 1 (Histogram.min_value a);
  let p50 = Histogram.p50 a in
  Alcotest.(check bool) "p50 at the low cluster's top" true
    (p50 >= 88 && p50 <= 112)

let test_hist_negative_clamped () =
  let h = Histogram.create () in
  Histogram.add h (-5);
  Alcotest.(check int) "clamped to 0" 0 (Histogram.max_value h);
  Alcotest.(check int) "counted" 1 (Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline\twith\\escapes");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ]);
        ("empty", Json.List []);
      ]
  in
  let s = Json.to_string v in
  (match Json.of_string s with
  | parsed when parsed = v -> ()
  | parsed ->
    Alcotest.failf "roundtrip mismatch: %s vs %s" s (Json.to_string parsed)
  | exception Json.Parse_error m -> Alcotest.failf "parse error: %s" m)

let test_json_parse_whitespace () =
  match Json.of_string "  { \"a\" : [ 1 , 2 ] ,\n \"b\" : null }  " with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]); ("b", Json.Null) ] ->
    ()
  | v -> Alcotest.failf "unexpected parse: %s" (Json.to_string v)

let test_json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | v -> Alcotest.failf "%S parsed as %s" s (Json.to_string v)
  in
  fails "";
  fails "{";
  fails "[1,]";
  fails "{\"a\":1,}";
  fails "\"unterminated";
  fails "[1] trailing"

(* ------------------------------------------------------------------ *)
(* Trace core                                                          *)
(* ------------------------------------------------------------------ *)

(* A hand-cranked clock so trace tests need no machine. *)
let manual_clock () =
  let t = ref 0 in
  Trace.set_clock (fun _core -> !t);
  t

let test_trace_disabled_is_noop () =
  fresh ();
  let clk = manual_clock () in
  Trace.span ~core:0 ~cat:"x" "outer" (fun () -> clk := !clk + 10);
  Trace.instant ~core:0 "tick";
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
  Alcotest.(check int) "no histograms" 0 (List.length (Trace.histograms ()))

let test_trace_span_nesting () =
  fresh ();
  let clk = manual_clock () in
  Trace.enable ();
  Trace.span ~core:0 ~cat:"a" "outer" (fun () ->
      clk := !clk + 100;
      Trace.span ~core:0 ~cat:"b" "inner" (fun () -> clk := !clk + 30);
      clk := !clk + 20);
  Trace.disable ();
  (* events are sorted by start ts: outer (ts 0) precedes inner (ts 100) *)
  (match Trace.events () with
  | [ outer; inner ] ->
    Alcotest.(check string) "inner name" "inner" inner.Trace.name;
    Alcotest.(check int) "inner ts" 100 inner.Trace.ts;
    Alcotest.(check int) "inner dur" 30 inner.Trace.dur;
    Alcotest.(check string) "outer name" "outer" outer.Trace.name;
    Alcotest.(check int) "outer dur" 150 outer.Trace.dur
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  (* Folded: outer self-time excludes the inner span. *)
  let folded = Trace.folded () in
  Alcotest.(check (option int)) "outer self" (Some 120)
    (List.assoc_opt "outer" folded);
  Alcotest.(check (option int)) "inner path" (Some 30)
    (List.assoc_opt "outer;inner" folded)

let test_trace_charge_attribution () =
  fresh ();
  let clk = manual_clock () in
  Trace.enable ();
  Trace.on_charge ~core:0 7;
  Trace.span ~core:0 ~cat:"a" "outer" (fun () ->
      Trace.on_charge ~core:0 100;
      Trace.span ~core:0 ~cat:"b" "inner" (fun () -> Trace.on_charge ~core:0 30);
      Trace.on_charge ~core:0 20);
  Trace.disable ();
  ignore clk;
  let cats = Trace.categories () in
  Alcotest.(check (option int)) "cat a" (Some 120) (List.assoc_opt "a" cats);
  Alcotest.(check (option int)) "cat b" (Some 30) (List.assoc_opt "b" cats);
  Alcotest.(check (option int)) "untracked" (Some 7)
    (List.assoc_opt "untracked" cats)

let test_trace_span_exception () =
  fresh ();
  let clk = manual_clock () in
  Trace.enable ();
  (try
     Trace.span ~core:0 ~cat:"a" "boom" (fun () ->
         clk := !clk + 5;
         failwith "bang")
   with Failure _ -> ());
  (* The frame was popped and the partial span recorded. *)
  Trace.span ~core:0 ~cat:"a" "after" (fun () -> clk := !clk + 1);
  Trace.disable ();
  let names = List.map (fun e -> e.Trace.name) (Trace.events ()) in
  Alcotest.(check (list string)) "both recorded" [ "boom"; "after" ] names

let test_trace_ring_bounded () =
  fresh ();
  let clk = manual_clock () in
  Trace.enable ~ring_capacity:8 ();
  for i = 1 to 20 do
    clk := i;
    Trace.instant ~core:0 "tick"
  done;
  Trace.disable ();
  let evs = Trace.events () in
  Alcotest.(check int) "capacity bounds events" 8 (List.length evs);
  Alcotest.(check int) "dropped counted" 12 (Trace.dropped ());
  (* The newest events survive. *)
  Alcotest.(check int) "oldest kept" 13 (List.hd evs).Trace.ts;
  Alcotest.(check int) "newest kept" 20
    (List.nth evs (List.length evs - 1)).Trace.ts

let test_trace_emit_span_and_latency () =
  fresh ();
  let _clk = manual_clock () in
  Trace.enable ();
  Trace.emit_span ~core:1 ~cat:"ipc" "call" ~ts:10 ~dur:390;
  Trace.record_latency "op" 1234;
  Trace.disable ();
  (match Trace.histogram "call" with
  | Some h ->
    Alcotest.(check int) "span fed histogram" 390 (Histogram.max_value h)
  | None -> Alcotest.fail "no histogram for emitted span");
  match Trace.histogram "op" with
  | Some h -> Alcotest.(check int) "latency recorded" 1234 (Histogram.max_value h)
  | None -> Alcotest.fail "no histogram for record_latency"

(* ------------------------------------------------------------------ *)
(* Chrome export over a real IPC workload                              *)
(* ------------------------------------------------------------------ *)

(* Exercise every Figure-7 phase: seL4 fastpath (ctx/syscall/other),
   Zircon slowpath (sched/copy), a cross-core call (ipi), and a
   SkyBridge direct call (vmfunc). *)
let run_ipc_workload () =
  let run_baseline variant ~cross ~payload =
    let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:32 () in
    let kernel = Kernel.create ~config:(Config.default variant) machine in
    let ipc = Ipc.create kernel in
    let client = Kernel.spawn kernel ~name:"client" in
    let server = Kernel.spawn kernel ~name:"server" in
    let ep =
      Ipc.register ipc server
        ~cores:(if cross then [ 1 ] else [])
        (fun ~core:_ msg -> msg)
    in
    Kernel.context_switch kernel ~core:0 client;
    for _ = 1 to 10 do
      ignore (Ipc.call ipc ~core:0 ~client ep (Bytes.create payload))
    done;
    Sky_sim.Machine.max_cycles machine
  in
  let run_skybridge () =
    let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:32 () in
    let kernel = Kernel.create ~config:(Config.default Config.Sel4) machine in
    let sb = Sky_core.Subkernel.init kernel in
    let client = Kernel.spawn kernel ~name:"client" in
    let server = Kernel.spawn kernel ~name:"server" in
    let sid =
      Sky_core.Subkernel.register_server sb server (fun ~core:_ msg -> msg)
    in
    Sky_core.Subkernel.register_client_to_server sb client ~server_id:sid;
    Kernel.context_switch kernel ~core:0 client;
    for _ = 1 to 10 do
      ignore
        (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid
           (Bytes.create 8))
    done;
    Sky_sim.Machine.max_cycles machine
  in
  let a = run_baseline Config.Sel4 ~cross:false ~payload:8 in
  let b = run_baseline Config.Zircon ~cross:false ~payload:256 in
  let c = run_baseline Config.Sel4 ~cross:true ~payload:8 in
  let d = run_skybridge () in
  a + b + c + d

let fig7_categories = [ "vmfunc"; "syscall"; "ctx"; "ipi"; "copy"; "sched"; "other" ]

let test_chrome_export_categories () =
  fresh ();
  Trace.enable ();
  ignore (run_ipc_workload ());
  Trace.disable ();
  let json = Chrome.export () in
  let parsed =
    try Json.of_string json
    with Json.Parse_error m -> Alcotest.failf "export does not parse: %s" m
  in
  let events =
    match Json.member "traceEvents" parsed with
    | Some l -> Json.to_list l
    | None -> Alcotest.fail "no traceEvents"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let complete_span_cats =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "cat" e) with
        | Some (Json.String "X"), Some (Json.String c) -> Some c
        | _ -> None)
      events
  in
  List.iter
    (fun cat ->
      Alcotest.(check bool)
        (Printf.sprintf "complete span in category %s" cat)
        true
        (List.mem cat complete_span_cats))
    fig7_categories;
  (* Every X event carries the required trace_event fields. *)
  List.iter
    (fun e ->
      match Json.member "ph" e with
      | Some (Json.String "X") ->
        List.iter
          (fun k ->
            if Json.member k e = None then
              Alcotest.failf "span missing field %s" k)
          [ "name"; "ts"; "dur"; "pid"; "tid" ]
      | _ -> ())
    events;
  (* Per-kernel roundtrip histograms with ordered quantiles. *)
  let hists =
    match Json.member "histograms" parsed with
    | Some (Json.Obj kvs) -> kvs
    | _ -> Alcotest.fail "no histograms object"
  in
  List.iter
    (fun name ->
      match List.assoc_opt name hists with
      | None -> Alcotest.failf "missing histogram %s" name
      | Some h ->
        let get k =
          match Json.member k h with
          | Some (Json.Int i) -> i
          | _ -> Alcotest.failf "%s: missing %s" name k
        in
        let p50 = get "p50" and p95 = get "p95" and p99 = get "p99" in
        Alcotest.(check bool)
          (name ^ " quantiles ordered")
          true
          (p50 <= p95 && p95 <= p99 && p99 <= get "max" && get "count" > 0))
    [ "sel4.roundtrip"; "zircon.roundtrip"; "skybridge.sel4.call" ];
  Trace.clear ()

let test_folded_export () =
  fresh ();
  Trace.enable ();
  ignore (run_ipc_workload ());
  Trace.disable ();
  let out = Folded.export () in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check bool) "has stacks" true (List.length lines > 0);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed folded line %S" line
      | Some i -> (
        let count = String.sub line (i + 1) (String.length line - i - 1) in
        match int_of_string_opt count with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.failf "bad self-cycles in %S" line))
    lines;
  (* Nested paths from the IPC stack appear. *)
  let has_prefix p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  Alcotest.(check bool) "roundtrip;leg path" true
    (List.exists (has_prefix "sel4.roundtrip;sel4.fastpath") lines);
  Trace.clear ()

(* ------------------------------------------------------------------ *)
(* Determinism: tracing must not change simulated cycles               *)
(* ------------------------------------------------------------------ *)

let test_tracing_cycle_neutral () =
  fresh ();
  let baseline = run_ipc_workload () in
  Trace.enable ();
  let traced = run_ipc_workload () in
  Trace.disable ();
  Trace.clear ();
  let again = run_ipc_workload () in
  Alcotest.(check int) "tracing on = off" baseline traced;
  Alcotest.(check int) "off after on" baseline again

let test_fig7_table_identical_with_tracing () =
  (* The acceptance check: the full Figure-7 experiment renders the same
     table (every measured cycle count identical) with tracing enabled
     and disabled. *)
  fresh ();
  let off = Sky_harness.Tbl.render (Sky_experiments.Exp_fig7.run ()) in
  Trace.enable ();
  let on = Sky_harness.Tbl.render (Sky_experiments.Exp_fig7.run ()) in
  Trace.disable ();
  Trace.clear ();
  Alcotest.(check string) "fig7 cycle totals identical" off on

(* The serving experiments: the routed call, the trampoline crossing
   and the worker's batch build their spans only when tracing is on, so
   the traced branch needs its own identity check. Every registry
   payload must come out byte-identical with tracing enabled. *)
let test_serving_identical_with_tracing id () =
  fresh ();
  let entry =
    match Sky_experiments.Registry.find id with
    | Some e -> e
    | None -> Alcotest.failf "no registry entry %s" id
  in
  let budgets = Sky_harness.Budget.load Sky_harness.Budget.default_file in
  let off = entry.Sky_experiments.Registry.run budgets in
  Trace.enable ();
  let on = entry.Sky_experiments.Registry.run budgets in
  Trace.disable ();
  Trace.clear ();
  Alcotest.(check string) (id ^ " payload identical")
    (Json.to_string off.Sky_harness.Outcome.json)
    (Json.to_string on.Sky_harness.Outcome.json)

(* ------------------------------------------------------------------ *)
(* Breakdown                                                           *)
(* ------------------------------------------------------------------ *)

let test_breakdown_add () =
  let a = Breakdown.create () and b = Breakdown.create () in
  a.Breakdown.vmfunc <- 10;
  a.Breakdown.other <- 1;
  b.Breakdown.vmfunc <- 32;
  b.Breakdown.syscall <- 5;
  b.Breakdown.ctx <- 4;
  b.Breakdown.ipi <- 3;
  b.Breakdown.copy <- 2;
  b.Breakdown.sched <- 1;
  Breakdown.add a b;
  Alcotest.(check int) "vmfunc" 42 a.Breakdown.vmfunc;
  Alcotest.(check int) "syscall" 5 a.Breakdown.syscall;
  Alcotest.(check int) "total" (42 + 5 + 4 + 3 + 2 + 1 + 1) (Breakdown.total a);
  (* add leaves the addend untouched *)
  Alcotest.(check int) "b untouched" 32 b.Breakdown.vmfunc

let test_breakdown_scale () =
  let t = Breakdown.create () in
  t.Breakdown.vmfunc <- 1000;
  t.Breakdown.syscall <- 999;
  t.Breakdown.other <- 1;
  let s = Breakdown.scale t 10 in
  Alcotest.(check int) "exact division" 100 s.Breakdown.vmfunc;
  Alcotest.(check int) "truncating division" 99 s.Breakdown.syscall;
  Alcotest.(check int) "rounds to zero" 0 s.Breakdown.other;
  (* scaling never mutates the input *)
  Alcotest.(check int) "input intact" 1000 t.Breakdown.vmfunc

let test_breakdown_scale_degenerate () =
  let t = Breakdown.create () in
  t.Breakdown.copy <- 123;
  let z = Breakdown.scale t 0 in
  Alcotest.(check int) "n=0 gives empty" 0 (Breakdown.total z);
  let n = Breakdown.scale t (-3) in
  Alcotest.(check int) "n<0 gives empty" 0 (Breakdown.total n);
  let one = Breakdown.scale t 1 in
  Alcotest.(check int) "n=1 is identity" 123 (Breakdown.total one)

let () =
  Alcotest.run "trace"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single value" `Quick test_hist_single;
          Alcotest.test_case "quantiles of 1..1000" `Quick test_hist_quantiles;
          Alcotest.test_case "small values exact" `Quick test_hist_small_values_exact;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "negative clamped" `Quick test_hist_negative_clamped;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "whitespace" `Quick test_json_parse_whitespace;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled_is_noop;
          Alcotest.test_case "span nesting + folded" `Quick test_trace_span_nesting;
          Alcotest.test_case "charge attribution" `Quick test_trace_charge_attribution;
          Alcotest.test_case "exception safety" `Quick test_trace_span_exception;
          Alcotest.test_case "ring bounded" `Quick test_trace_ring_bounded;
          Alcotest.test_case "emit_span + record_latency" `Quick
            test_trace_emit_span_and_latency;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome JSON parses, fig7 categories" `Quick
            test_chrome_export_categories;
          Alcotest.test_case "folded stacks" `Quick test_folded_export;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cycles identical on/off" `Quick
            test_tracing_cycle_neutral;
          Alcotest.test_case "fig7 table identical with tracing" `Slow
            test_fig7_table_identical_with_tracing;
          Alcotest.test_case "web payload identical with tracing" `Slow
            (test_serving_identical_with_tracing "web");
          Alcotest.test_case "overload payload identical with tracing" `Slow
            (test_serving_identical_with_tracing "overload");
          Alcotest.test_case "mesh payload identical with tracing" `Slow
            (test_serving_identical_with_tracing "mesh");
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "add" `Quick test_breakdown_add;
          Alcotest.test_case "scale truncation" `Quick test_breakdown_scale;
          Alcotest.test_case "scale degenerate n" `Quick
            test_breakdown_scale_degenerate;
        ] );
    ]
