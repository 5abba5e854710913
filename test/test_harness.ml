(* Tests for the table-rendering harness (lib/harness) — the layer every
   experiment's output goes through, so misalignment or bad number
   formatting would corrupt EXPERIMENTS.md silently. *)

open Sky_harness

let sample =
  Tbl.make ~title:"t" ~header:[ "name"; "a"; "b" ]
    ~notes:[ "a note" ]
    [ [ "row1"; "1"; "2,000" ]; [ "longer row name"; "33"; "4" ] ]

let test_fmt_int () =
  Alcotest.(check string) "small" "7" (Tbl.fmt_int 7);
  Alcotest.(check string) "grouping" "1,234,567" (Tbl.fmt_int 1234567);
  Alcotest.(check string) "exact thousands" "12,000" (Tbl.fmt_int 12000);
  Alcotest.(check string) "negative" "-1,234" (Tbl.fmt_int (-1234))

let test_render_alignment () =
  let out = Tbl.render sample in
  let lines = String.split_on_char '\n' out in
  (* Header, separator and rows all share one width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" || String.length l < 3 then None else Some (String.length l))
      (List.filteri (fun i _ -> i >= 1 && i <= 4) lines)
  in
  (match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest
  | [] -> Alcotest.fail "no lines");
  Alcotest.(check bool) "title present" true
    (String.length out > 0 && String.sub out 0 4 = "== t");
  Alcotest.(check bool) "note present" true
    (List.exists (fun l -> l = "  note: a note") lines)

let test_markdown () =
  let md = Tbl.to_markdown sample in
  Alcotest.(check bool) "heading" true (String.sub md 0 5 = "### t");
  Alcotest.(check bool) "separator row" true
    (List.exists (fun l -> l = "| --- | --- | --- |") (String.split_on_char '\n' md));
  Alcotest.(check bool) "cells intact" true
    (List.exists
       (fun l -> l = "| longer row name | 33 | 4 |")
       (String.split_on_char '\n' md))

let test_speedup_format () =
  Alcotest.(check string) "+50%" "+50.0%" (Tbl.fmt_speedup 1.5);
  Alcotest.(check string) "-10%" "-10.0%" (Tbl.fmt_speedup 0.9)

let with_file contents f =
  let path = Filename.temp_file "skybench" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* A budget is read from its own section only: a key of the same name
   under another section is not the budget, so the check fails instead
   of passing against the wrong number. *)
let test_budget_scoped_to_section () =
  with_file {|{"pingpong":{"note":1},"other":{"cycles_per_call":99999}}|}
    (fun path ->
      let b = Budget.load path in
      Alcotest.(check (option int)) "not in its section" None
        (Budget.find b ~section:"pingpong" ~key:"cycles_per_call");
      Alcotest.(check (option int)) "in its own section" (Some 99999)
        (Budget.find b ~section:"other" ~key:"cycles_per_call");
      let r =
        Sky_trace.Json.(
          Obj
            [
              ("experiment", String "pingpong");
              ("cycles_per_call", Int 6958);
              ("cycles_per_call_noaccel", Int 14694);
              ("walk_cycles_per_call", Int 0);
              ("psc_hits", Int 0);
              ("psc_misses", Int 0);
              ("ept_wc_hits", Int 0);
              ("ept_wc_misses", Int 0);
            ])
      in
      match (Sky_experiments.Exp_pingpong.outcome b r).failed with
      | [ failed ] ->
        Alcotest.(check bool) "perf fails on the missing budget" true
          (String.starts_with ~prefix:"pingpong.cycles_per_call" failed)
      | failed ->
        Alcotest.failf "expected one failed check, got [%s]"
          (String.concat "; " failed))

(* The +2 % rule: at most budget * 102 / 100 passes. A missing file
   skips the check; a present file without the key fails it. *)
let test_budget_ceiling () =
  let holds b v = snd (Budget.ceiling b ~section:"s" ~key:"k" ~backend:"m" v) in
  with_file {|{"s":{"k":{"m":100}}}|} (fun path ->
      let b = Budget.load path in
      Alcotest.(check bool) "+2% passes" true (holds b 102);
      Alcotest.(check bool) "beyond +2% fails" false (holds b 103));
  with_file {|{"s":{"k":{"n":1000,"m":100}}}|} (fun path ->
      Alcotest.(check bool) "another backend's budget is not this one's" false
        (holds (Budget.load path) 103));
  with_file {|{"s":{}}|} (fun path ->
      Alcotest.(check bool) "missing key fails" false (holds (Budget.load path) 1));
  Alcotest.(check bool) "no file skips" true
    (holds (Budget.load "no-such-budgets.json") max_int)

(* The floor rule is the ceiling's: a present budgets file without the
   goodput floor fails exactly that check of the committed overload
   result (it fell back to 50 % and passed), and no file skips it. *)
let test_budget_floor () =
  let text = In_channel.with_open_bin "../BENCH_overload.json" In_channel.input_all in
  let r = Outcome.field (Sky_trace.Json.of_string text) "result" in
  let failed b = (Sky_experiments.Exp_overload.outcome b r).failed in
  with_file {|{"overload":{"p999_cycles":{"vmfunc":160112,"mpk":169215,"syscall":153613}}}|}
    (fun path ->
      match failed (Budget.load path) with
      | [ check ] ->
        Alcotest.(check bool) "the floor check names its key" true
          (String.starts_with ~prefix:"overload.goodput_floor_pct (no budget" check)
      | checks -> Alcotest.failf "expected one failed check, got [%s]" (String.concat "; " checks));
  Alcotest.(check (list string)) "no file skips" [] (failed (Budget.load "no-such-budgets.json"))

(* Every artifact is {"host":{...},"result":R} with R the rendered JSON,
   byte for byte. *)
let test_artifact_shape () =
  let json = Sky_trace.Json.to_string (Tbl.to_json sample) in
  let path =
    Artifact.write ~name:"harness-test" ~seconds:1.25
      ~host:[ ("gate", Sky_trace.Json.String "pass") ]
      json
  in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (match Sky_trace.Json.of_string contents with
  | Sky_trace.Json.Obj [ ("host", Sky_trace.Json.Obj host); ("result", _) ] ->
    Alcotest.(check (list string)) "host keys" [ "seconds"; "gate" ]
      (List.map fst host)
  | _ -> Alcotest.fail "not {\"host\":{...},\"result\":...}");
  let suffix = json ^ "}\n" in
  let n = String.length contents and m = String.length suffix in
  Alcotest.(check string) "result is the rendered JSON" suffix
    (String.sub contents (n - m) m);
  Alcotest.(check string) "preceded by the result key" "\"result\":"
    (String.sub contents (n - m - 9) 9)

(* The payload readers: a present key of the right type reads back; a
   missing or mistyped key raises [Invalid_argument] naming the key, and
   nothing falls back to a default. *)
let test_outcome_readers () =
  let open Sky_trace.Json in
  let r = Obj [ ("n", Int 3); ("x", Float 0.5); ("ok", Bool true); ("l", List [ Int 1 ]) ] in
  Alcotest.(check int) "int" 3 (Outcome.int r "n");
  Alcotest.(check (float 0.0)) "float" 0.5 (Outcome.float r "x");
  Alcotest.(check bool) "bool" true (Outcome.bool r "ok");
  Alcotest.(check int) "list" 1 (List.length (Outcome.list r "l"));
  Alcotest.check_raises "missing key named" (Invalid_argument "Outcome: no key gone")
    (fun () -> ignore (Outcome.int r "gone"));
  Alcotest.check_raises "mistyped key named" (Invalid_argument "Outcome: mistyped key x")
    (fun () -> ignore (Outcome.int r "x"))

let () =
  Alcotest.run "harness"
    [
      ( "tbl",
        [
          Alcotest.test_case "fmt_int grouping" `Quick test_fmt_int;
          Alcotest.test_case "render alignment" `Quick test_render_alignment;
          Alcotest.test_case "markdown" `Quick test_markdown;
          Alcotest.test_case "speedup format" `Quick test_speedup_format;
        ] );
      ( "budget",
        [
          Alcotest.test_case "scoped to its section" `Quick
            test_budget_scoped_to_section;
          Alcotest.test_case "+2% ceiling" `Quick test_budget_ceiling;
          Alcotest.test_case "floor fails closed" `Quick test_budget_floor;
        ] );
      ( "artifact",
        [ Alcotest.test_case "host + result shape" `Quick test_artifact_shape ] );
      ( "outcome",
        [ Alcotest.test_case "readers name the key" `Quick test_outcome_readers ] );
    ]
