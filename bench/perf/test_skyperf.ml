(* Unit tests of the benchmark's own logic: statistics, the metric
   registry against BENCHMARK.json, compare verdicts and the exit
   status. No simulation runs here. *)

open Skyperf_lib
module Json = Sky_trace.Json

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

(* Reference values from Python's statistics.quantiles(xs, n=4) and
   statistics.median. *)
let test_stats () =
  let q xs (a, b, c) name =
    let x, y, z = Stats.quartiles xs in
    check name (close x a && close y b && close z c)
  in
  q [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] (2.75, 5.5, 8.25) "quartiles 1..10";
  q [| 3.; 1. |] (0.5, 2.0, 3.5) "quartiles of two";
  q [| 5.; 1.; 4. |] (1.0, 4.0, 5.0) "quartiles of three";
  q [| 0.5; 0.25; 1.5; 1.0; 2.0 |] (0.375, 1.0, 1.75) "quartiles of five";
  q [| 7. |] (7., 7., 7.) "quartiles of one";
  check "median even" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "median odd" (close (Stats.median [| 9.; 1.; 5. |]) 5.0);
  check "spread" (close (Stats.spread [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |]) (5.5 /. 5.5));
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 nearest rank" (close (Stats.percentile xs ~p:50.0) 50.0);
  check "p99 nearest rank" (close (Stats.percentile xs ~p:99.0) 99.0);
  check "p100 is max" (close (Stats.percentile xs ~p:100.0) 100.0);
  (* at least ten samples beyond the percentile *)
  check "p99.9 tail at 10000" (Stats.tail_ok ~n:10_000 ~p:99.9);
  check "p99.9 tail at 9999" (not (Stats.tail_ok ~n:9_999 ~p:99.9));
  check "p99 tail at 1000" (Stats.tail_ok ~n:1_000 ~p:99.0);
  check "p99 tail at 999" (not (Stats.tail_ok ~n:999 ~p:99.0));
  check "beyond p99.9 of 32000" (Stats.beyond ~n:32_000 ~p:99.9 = 32);
  (* interpolated histogram percentiles track the exact ones *)
  let module H = Sky_trace.Histogram in
  let h = H.create () in
  for v = 1 to 10_000 do
    H.add h v
  done;
  let near p want = Float.abs (Stats.hist_percentile h ~p -. want) /. want < 0.01 in
  check "hist p50 interpolated" (near 50.0 5000.0);
  check "hist p99 interpolated" (near 99.0 9900.0);
  check "hist p99.9 interpolated" (near 99.9 9990.0);
  let c = H.create () in
  for _ = 1 to 100 do
    H.add c 7620
  done;
  check "hist constant clamps to the value" (Stats.hist_percentile c ~p:99.0 = 7620.0);
  check "hist empty" (Stats.hist_percentile (H.create ()) ~p:50.0 = 0.0)

let test_names () =
  check "name ok" (Metrics.name_ok "host.mmu.translate_ns");
  check "name digit first" (Metrics.name_ok "9x_y-z.w");
  check "name empty" (not (Metrics.name_ok ""));
  check "name dot first" (not (Metrics.name_ok ".x"));
  check "name space" (not (Metrics.name_ok "a b"));
  check "name slash" (not (Metrics.name_ok "ops/s"));
  check "name 64" (Metrics.name_ok (String.make 64 'a'));
  check "name 65" (not (Metrics.name_ok (String.make 65 'a')));
  List.iter
    (fun (m : Metrics.t) -> check ("registry name " ^ m.name) (Metrics.name_ok m.name))
    Metrics.all;
  let names = List.map (fun (m : Metrics.t) -> m.name) Metrics.all in
  check "registry names unique" (List.length (List.sort_uniq compare names) = List.length names)

(* BENCHMARK.json lists exactly the registry's metrics, with the same
   units, directions and bounds, in the same order. *)
let test_benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let j = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let str k o = Option.bind (Json.member k o) Json.string_value in
  let num k o =
    match Json.member k o with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let listed key = Option.fold ~none:[] ~some:Json.to_list (Json.member key j) in
  let same key (ms : Metrics.t list) =
    let entries = listed key in
    check (key ^ " count") (List.length entries = List.length ms);
    List.iter2
      (fun e (m : Metrics.t) ->
        check (key ^ " name " ^ m.name) (str "name" e = Some m.name);
        check (key ^ " unit " ^ m.name) (str "unit" e = Some m.unit_);
        check (key ^ " better " ^ m.name) (str "better" e = Some (Metrics.better_name m.better));
        match m.kind with
        | Metrics.End_to_end { bound } ->
          check (key ^ " bound " ^ m.name) (num "bound" e = Some bound)
        | Metrics.Per_layer _ -> check (key ^ " no bound " ^ m.name) (num "bound" e = None))
      (List.filteri (fun i _ -> i < List.length ms) entries)
      (List.filteri (fun i _ -> i < List.length entries) ms)
  in
  same "end_to_end" Metrics.end_to_end;
  same "per_layer" Metrics.per_layer;
  check "setup_s has the largest bound"
    (List.for_all
       (fun (m : Metrics.t) ->
         match m.kind with
         | Metrics.End_to_end { bound } -> m.name = "setup_s" || bound < 0.25
         | Metrics.Per_layer _ -> true)
       Metrics.all)

let test_compare () =
  let v ~better ~bound a b = Compare.verdict ~better ~bound (Array.of_list a) (Array.of_list b) in
  let base = [ 100.; 101.; 99.; 100.5; 99.5 ] in
  check "unchanged" (v ~better:Metrics.Higher ~bound:0.1 base [ 100.2; 99.8; 100.1; 100.4; 99.9 ] = Compare.Unchanged);
  check "regressed (higher is better)"
    (v ~better:Metrics.Higher ~bound:0.1 base [ 80.; 81.; 79.; 80.5; 79.5 ] = Compare.Regressed);
  check "regressed (lower is better)"
    (v ~better:Metrics.Lower ~bound:0.1 base [ 120.; 121.; 119.; 120.5; 119.5 ] = Compare.Regressed);
  check "improved" (v ~better:Metrics.Higher ~bound:0.1 base [ 110.; 111.; 109.; 110.5; 109.5 ] = Compare.Improved);
  check "within bound, not all pairs won"
    (v ~better:Metrics.Higher ~bound:0.1 base [ 102.; 99.; 102.; 99.; 102. ] = Compare.Unchanged);
  let noisy = [ 50.; 150.; 80.; 120.; 100. ] in
  check "unresolved" (v ~better:Metrics.Higher ~bound:0.1 base noisy = Compare.Unresolved);
  check "noisy but every run better"
    (v ~better:Metrics.Higher ~bound:0.1 noisy [ 200.; 260.; 300.; 230.; 400. ] = Compare.Improved);
  let pairs, wins = Compare.wins ~better:Metrics.Lower [| 1.; 2.; 3. |] [| 0.5; 2.; 4.; 9. |] in
  check "ties count for neither side" (pairs = 3 && wins = 1);
  let run wl v = { Compare.workload = wl; values = [ ("sim_ops_per_s", v) ] } in
  let rows =
    Compare.rows
      [ run "web" 100.; run "web" 101.; run "web" 99. ]
      [ run "web" 70.; run "web" 71.; run "web" 69. ]
  in
  check "rows per metric and workload" (List.length rows = 1);
  check "regression exits non-zero" (Compare.exit_code rows = 1);
  check "clean compare exits zero" (Compare.exit_code [] = 0)

let test_exit () =
  check "all checks pass" (Report.exit_code [ ("a", true); ("b", true) ] = 0);
  check "a failed check exits non-zero" (Report.exit_code [ ("a", true); ("b", false) ] <> 0);
  let values = List.map (fun (m : Metrics.t) -> (m.name, 1.0)) Metrics.all in
  check "complete run lacks nothing" (Report.missing ~end_to_end:true values = []);
  check "missing metric named"
    (Report.missing ~end_to_end:true (List.remove_assoc "setup_s" values) = [ "setup_s" ]);
  let line ~checks =
    Json.of_string
      (Report.result_line ~end_to_end:true ~checks ~attempted:10 ~failed:0 values)
  in
  let keys j = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
  let ok = line ~checks:[ ("a", true) ] and bad = line ~checks:[ ("a", false) ] in
  check "result line keys" (keys ok = [ "correct"; "attempted"; "failed"; "metrics" ]);
  check "result line correct" (Json.member "correct" ok = Some (Json.Bool true));
  check "failed check reported" (Json.member "correct" bad = Some (Json.Bool false));
  check "result line has end-to-end metrics only"
    (Option.fold ~none:[] ~some:keys (Json.member "metrics" ok)
    = List.map (fun (m : Metrics.t) -> m.name) Metrics.end_to_end)

let () =
  test_stats ();
  test_names ();
  test_benchmark_json ();
  test_compare ();
  test_exit ();
  if !failures > 0 then begin
    Printf.printf "%d skyperf test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "skyperf tests: ok"
