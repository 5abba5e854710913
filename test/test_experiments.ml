(* Integration tests over the experiment harness: each paper table/figure
   must reproduce its qualitative claims, run-to-run deterministically.
   These are the executable versions of the "shape targets" documented in
   EXPERIMENTS.md. *)

open Sky_experiments
open Sky_ukernel

(* Budgets with no file behind them: every budget check is skipped. *)
let no_budgets = { Sky_harness.Budget.file = "none"; json = None }

let cell tbl ~row ~col =
  let t = tbl in
  match List.nth_opt t.Sky_harness.Tbl.rows row with
  | Some r -> List.nth r col
  | None -> Alcotest.failf "no row %d" row

(* Parse "paper/ours" cells and comma-grouped ints. *)
let ours_of s =
  let s = match String.index_opt s '/' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  let b = Buffer.create 8 in
  String.iter (fun c -> if c <> ',' then Buffer.add_char b c) s;
  float_of_string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let fig7 = lazy (Exp_fig7.run ())

let test_fig7_skybridge_396 () =
  let t = Lazy.force fig7 in
  (* Rows 0-2 are the three SkyBridge bars. *)
  for row = 0 to 2 do
    let ours = ours_of (cell t ~row ~col:2) in
    Alcotest.(check bool)
      (Printf.sprintf "skybridge row %d in [396, 410]" row)
      true
      (ours >= 396.0 && ours <= 410.0)
  done

let test_fig7_within_2pct_of_paper () =
  let t = Lazy.force fig7 in
  List.iteri
    (fun _row r ->
      let paper = ours_of (List.nth r 1) and ours = ours_of (List.nth r 2) in
      let err = abs_float (ours -. paper) /. paper in
      Alcotest.(check bool)
        (Printf.sprintf "%s: |%.0f - %.0f| / paper < 2%%" (List.nth r 0) ours paper)
        true (err < 0.02))
    t.Sky_harness.Tbl.rows

let test_fig7_ordering () =
  let t = Lazy.force fig7 in
  let v row = ours_of (cell t ~row ~col:2) in
  (* sky < sel4 fast < fiasco fast < sel4 cross < fiasco cross *)
  Alcotest.(check bool) "sky < sel4 fastpath" true (v 0 < v 3);
  Alcotest.(check bool) "sel4 fast < fiasco fast" true (v 3 < v 5);
  Alcotest.(check bool) "fiasco fast < zircon" true (v 5 < v 7);
  Alcotest.(check bool) "zircon single < zircon cross" true (v 7 < v 8)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let test_table1_pollution () =
  let t = Exp_kv.run_table1 () in
  let v ~row ~col = ours_of (cell t ~row ~col) in
  (* Baseline ~ Delay on every structure. *)
  for col = 1 to 6 do
    let b = v ~row:0 ~col and d = v ~row:1 ~col in
    Alcotest.(check bool) "baseline ~ delay" true (abs_float (b -. d) <= 0.1 *. (b +. 1.))
  done;
  (* IPC pollutes d-cache and d-TLB. *)
  Alcotest.(check bool) "d-cache pollution" true (v ~row:2 ~col:2 > 1.3 *. v ~row:0 ~col:2);
  Alcotest.(check bool) "d-TLB pollution" true (v ~row:2 ~col:6 > 100.0);
  Alcotest.(check bool) "baseline d-TLB quiet" true (v ~row:0 ~col:6 < 10.0)

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

let test_fig8_ladder () =
  let t = Exp_kv.run_fig8 () in
  List.iteri
    (fun row r ->
      let base = ours_of (List.nth r 1) in
      let delay = ours_of (List.nth r 2) in
      let ipc = ours_of (List.nth r 3) in
      let cross = ours_of (List.nth r 4) in
      let sky = ours_of (List.nth r 5) in
      let m = Printf.sprintf "row %d" row in
      Alcotest.(check bool) (m ^ " base<delay") true (base < delay);
      Alcotest.(check bool) (m ^ " base<sky") true (base < sky);
      Alcotest.(check bool) (m ^ " sky<ipc") true (sky < ipc);
      Alcotest.(check bool) (m ^ " ipc<cross") true (ipc < cross))
    t.Sky_harness.Tbl.rows

let test_fig8_within_35pct () =
  let t = Exp_kv.run_fig8 () in
  List.iter
    (fun r ->
      List.iteri
        (fun col cellv ->
          if col > 0 then begin
            let paper = float_of_string (List.hd (String.split_on_char '/' cellv)) in
            let ours = ours_of cellv in
            let err = abs_float (ours -. paper) /. paper in
            Alcotest.(check bool)
              (Printf.sprintf "%s vs paper %.0f: %.0f%%" cellv paper (err *. 100.))
              true (err < 0.35)
          end)
        r)
    t.Sky_harness.Tbl.rows

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

let table4 = lazy (Exp_table4.run ())

let test_table4_skybridge_wins_writes () =
  let t = Lazy.force table4 in
  List.iter
    (fun r ->
      let label = List.nth r 0 in
      let st = ours_of (List.nth r 1) in
      let mt = ours_of (List.nth r 2) in
      let sky = ours_of (List.nth r 3) in
      Alcotest.(check bool) (label ^ ": st <= mt") true (st <= mt *. 1.01);
      Alcotest.(check bool) (label ^ ": mt < sky") true (mt < sky))
    t.Sky_harness.Tbl.rows

let test_table4_query_gains_least () =
  let t = Lazy.force table4 in
  (* Per kernel (4 consecutive rows), the Query row's sky/mt ratio must be
     the smallest. *)
  let ratio r = ours_of (List.nth r 3) /. ours_of (List.nth r 2) in
  List.iteri
    (fun k rows_start ->
      ignore k;
      let rows =
        List.filteri
          (fun i _ -> i >= rows_start && i < rows_start + 4)
          t.Sky_harness.Tbl.rows
      in
      match rows with
      | [ ins; upd; qry; del ] ->
        Alcotest.(check bool) "query < insert gain" true (ratio qry < ratio ins);
        Alcotest.(check bool) "query < update gain" true (ratio qry < ratio upd);
        Alcotest.(check bool) "query < delete gain" true (ratio qry < ratio del)
      | _ -> Alcotest.fail "expected 4 rows per kernel")
    [ 0; 4; 8 ]

let test_table4_zircon_gains_most () =
  let t = Lazy.force table4 in
  let gain row = ours_of (cell t ~row ~col:3) /. ours_of (cell t ~row ~col:2) in
  (* Insert rows: seL4 = 0, Fiasco = 4, Zircon = 8. *)
  Alcotest.(check bool) "zircon > fiasco insert gain" true (gain 8 > gain 4);
  Alcotest.(check bool) "fiasco > sel4 insert gain" true (gain 4 > gain 0)

(* ------------------------------------------------------------------ *)
(* Figures 9–11                                                        *)
(* ------------------------------------------------------------------ *)

let test_ycsb_shape () =
  let t = Exp_ycsb.run_variant ~records:400 ~ops_per_thread:30 Config.Sel4 in
  let series row = List.map ours_of (List.tl (List.nth t.Sky_harness.Tbl.rows row)) in
  let st = series 0 and mt = series 1 and sky = series 2 in
  (* SkyBridge on top at 1 and 2 threads. *)
  Alcotest.(check bool) "sky > mt @1" true (List.nth sky 0 > List.nth mt 0);
  Alcotest.(check bool) "mt > st @1" true (List.nth mt 0 > List.nth st 0);
  Alcotest.(check bool) "sky > mt @2" true (List.nth sky 1 > List.nth mt 1);
  (* Collapse: 8-thread throughput far below 1-thread on every series. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "falls with threads" true
        (List.nth s 3 < 0.6 *. List.nth s 0))
    [ st; mt; sky ]

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)
(* ------------------------------------------------------------------ *)

let test_table5_zero_exits_low_overhead () =
  let t = Exp_table5.run () in
  List.iter
    (fun r ->
      let overhead = float_of_string (Filename.chop_suffix (List.nth r 3) "%") in
      let exits = int_of_float (ours_of (List.nth r 4)) in
      Alcotest.(check int) "zero VM exits" 0 exits;
      Alcotest.(check bool)
        (Printf.sprintf "overhead %.2f%% < 4%%" overhead)
        true
        (abs_float overhead < 4.0))
    t.Sky_harness.Tbl.rows

(* ------------------------------------------------------------------ *)
(* Table 6                                                             *)
(* ------------------------------------------------------------------ *)

let test_table6_exactly_one_hit () =
  let t = Exp_table6.run ~scale:512 () in
  let total =
    List.fold_left (fun acc r -> acc + int_of_float (ours_of (List.nth r 4))) 0
      t.Sky_harness.Tbl.rows
  in
  Alcotest.(check int) "one inadvertent VMFUNC in the whole corpus" 1 total

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let test_ablation_directions () =
  let t = Exp_ablation.run () in
  let chosen row = ours_of (cell t ~row ~col:1) in
  let alt row = ours_of (cell t ~row ~col:2) in
  (* Every chosen design must beat its alternative (fewer accesses/cycles;
     for pages, fewer pages). *)
  for row = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "row %d: chosen (%.0f) <= alternative (%.0f)" row
         (chosen row) (alt row))
      true
      (chosen row <= alt row)
  done;
  (* Specific facts. *)
  Alcotest.(check bool) "nested walk 14 vs 24" true
    (chosen 0 = 14.0 && alt 0 = 24.0);
  Alcotest.(check bool) "shallow copy is 4 pages" true (chosen 4 = 4.0)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_experiments_deterministic () =
  let render e = Sky_harness.Tbl.render (e.Registry.run no_budgets).table in
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> Alcotest.(check string) (id ^ " deterministic") (render e) (render e)
      | None -> Alcotest.failf "missing experiment %s" id)
    [ "fig7"; "table2"; "table6" ]

(* The overload scenario's acceptance gates at its one configuration:
   accounting holds with zero lost/corrupt, admission sheds at 2x,
   goodput survives, the storm is survived cleanly, and the tenant
   fleet drives both eviction paths. *)
let test_overload_gates () =
  let r = Exp_overload.run_overload () in
  Alcotest.(check bool) "zero lost/corrupt" true (Exp_overload.zero_lost r);
  Alcotest.(check bool) "sheds under 2x overload" true
    (Exp_overload.overload_sheds r);
  Alcotest.(check bool) "goodput holds at 2x" true
    (Exp_overload.goodput_ratio r >= 0.5);
  Alcotest.(check bool) "chaos injected and survived" true
    (Exp_overload.chaos_active r);
  Alcotest.(check bool) "audits + fsck clean after storm" true
    (Exp_overload.chaos_clean r);
  Alcotest.(check bool) "tenant fleet evicted to slowpath" true
    (Exp_overload.tenants_evicted r)

(* EXPERIMENTS.md's 16-worker web table: every request served and
   validated, SkyBridge ahead of slowpath IPC at every width, and
   throughput rising with every added worker. The registry runs the
   4-worker curve only. *)
let test_web_curve_16 () =
  let r = Exp_web.run_curve ~cores:16 ~conns:120 ~requests_per_conn:8 in
  Alcotest.(check (list string)) "all web checks hold" [] (Exp_web.outcome r).failed

(* EXPERIMENTS.md's census seeds beyond the registry's seed 1: the storm
   loses no call and leaves clean audits and a clean file system. *)
let test_chaos_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d clean" seed)
        [] (Exp_chaos.outcome (Exp_chaos.run_chaos ~seed)).failed)
    [ 2; 7 ]

(* Every mesh predicate reaches the gate by name: a stale mapping left
   after revocation fails `no_stale` and nothing else. *)
let test_mesh_failures_named () =
  let r = Exp_mesh.run_mesh () in
  Alcotest.(check (list string)) "clean run passes" [] (Exp_mesh.outcome r).failed;
  Alcotest.(check (list string)) "stale mapping named" [ "no_stale" ]
    (Exp_mesh.outcome { r with Exp_mesh.m_graph_stale = 1 }).failed

(* One byte of a scenario's live trampoline frame overwritten after
   boot: the audit fails exactly [clean], and its JSON names the
   violation under the scenario and pass that found it. *)
let test_audit_planted_violation () =
  Alcotest.(check (list string)) "clean machines pass" []
    (Exp_audit.run no_budgets).failed;
  let scenarios = Exp_audit.scenarios () in
  let zircon = List.find (fun s -> s.Exp_audit.name = "zircon") scenarios in
  let sb = zircon.Exp_audit.sb in
  Sky_mem.Phys_mem.write_u8
    (Kernel.mem (Sky_core.Subkernel.kernel sb))
    (Sky_core.Subkernel.trampoline_frame sb)
    0xCC;
  let o = Exp_audit.outcome (List.map Exp_audit.audit scenarios) in
  Alcotest.(check (list string)) "only clean fails" [ "clean" ] o.failed;
  let open Sky_trace.Json in
  let json = of_string o.json in
  Alcotest.(check (option bool)) "clean: false" (Some false)
    (match member "clean" json with Some (Bool b) -> Some b | _ -> None);
  let named =
    List.concat_map
      (fun sc ->
        List.concat_map
          (fun p ->
            List.filter_map
              (fun v ->
                Option.bind (member "invariant" v) string_value
                |> Option.map (fun inv ->
                       ( Option.bind (member "scenario" sc) string_value,
                         Option.bind (member "pass" p) string_value,
                         inv )))
              (to_list (Option.value ~default:Null (member "violations" p))))
          (to_list (Option.value ~default:Null (member "passes" sc))))
      (to_list (Option.value ~default:Null (member "scenarios" json)))
  in
  Alcotest.(check bool) "zircon's trampoline pass names it" true
    (List.mem (Some "zircon", Some "trampoline", "trampoline.undecodable") named);
  Alcotest.(check bool) "no other scenario fails" true
    (List.for_all (fun (sc, _, _) -> sc = Some "zircon") named)

let test_registry_complete () =
  (* One entry per paper table/figure + the ablation. *)
  let expected =
    [ "table1"; "table2"; "fig2"; "fig7"; "fig8"; "table4"; "fig9"; "fig10";
      "fig11"; "table5"; "table6"; "gadgets"; "audit"; "ablation"; "monolithic";
      "tempmap"; "scheduling"; "chaos"; "web"; "mesh"; "ycsbmix"; "pingpong";
      "overload"; "matrix"; "parallel" ]
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (Registry.find id <> None))
    expected;
  Alcotest.(check int) "no stray entries" (List.length expected)
    (List.length Registry.all)

let () =
  Alcotest.run "experiments"
    [
      ( "fig7",
        [
          Alcotest.test_case "skybridge ~396 cycles" `Quick test_fig7_skybridge_396;
          Alcotest.test_case "all bars within 2% of paper" `Quick
            test_fig7_within_2pct_of_paper;
          Alcotest.test_case "ordering" `Quick test_fig7_ordering;
        ] );
      ( "kv",
        [
          Alcotest.test_case "table1 pollution pattern" `Slow test_table1_pollution;
          Alcotest.test_case "fig8 latency ladder" `Slow test_fig8_ladder;
          Alcotest.test_case "fig8 within 35% of paper" `Slow test_fig8_within_35pct;
        ] );
      ( "sqlite",
        [
          Alcotest.test_case "table4: sky > mt > st" `Slow test_table4_skybridge_wins_writes;
          Alcotest.test_case "table4: query gains least" `Slow test_table4_query_gains_least;
          Alcotest.test_case "table4: zircon gains most" `Slow test_table4_zircon_gains_most;
          Alcotest.test_case "ycsb shape (fig9)" `Slow test_ycsb_shape;
        ] );
      ( "virtualization",
        [
          Alcotest.test_case "table5: 0 exits, <4% overhead" `Slow
            test_table5_zero_exits_low_overhead;
          Alcotest.test_case "table6: exactly one hit" `Slow test_table6_exactly_one_hit;
          Alcotest.test_case "ablation directions" `Slow test_ablation_directions;
        ] );
      ( "registry",
        [
          Alcotest.test_case "deterministic" `Slow test_experiments_deterministic;
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "mesh failures named" `Quick test_mesh_failures_named;
          Alcotest.test_case "audit names a planted violation" `Quick
            test_audit_planted_violation;
        ] );
      ( "overload",
        [ Alcotest.test_case "acceptance gates" `Slow test_overload_gates ] );
      ( "web",
        [ Alcotest.test_case "curve to 16 workers" `Slow test_web_curve_16 ] );
      ( "chaos",
        [ Alcotest.test_case "clean at seeds 2, 7" `Slow test_chaos_seeds ] );
    ]
