(* skybench: run one (or all) of the paper's tables/figures.

   Usage:
     skybench list
     skybench run table4
     skybench run all
     skybench run table4 --json          (machine-readable table)
     skybench run chaos --backend mpk    (any experiment under MPK or syscall)
     skybench run audit                  (the whole-machine security audit)
     skybench trace fig7 -o trace.json   (Chrome/Perfetto trace) *)

open Cmdliner
open Sky_harness
open Sky_experiments

(* run and trace take --backend: the isolation mechanism carrying the
   mediated calls (VMFUNC EPTP switching, ERIM-style MPK, or the
   filtered-syscall slowpath). It sets the process-wide default that
   Subkernel.init picks up, so every experiment runs unchanged against
   whichever mechanism was selected. *)
let backend_arg =
  let parse s =
    match Sky_core.Backend.of_string s with
    | Some k -> Ok k
    | None ->
      Error (`Msg (Printf.sprintf "unknown backend %S (try vmfunc|mpk|syscall)" s))
  in
  let backend_conv = Arg.conv (parse, Sky_core.Backend.pp) in
  Arg.(
    value
    & opt backend_conv Sky_core.Backend.Vmfunc
    & info [ "backend" ] ~docv:"MECH"
        ~doc:
          "Isolation backend carrying the direct calls: $(b,vmfunc) (EPTP \
           switching, the paper's mechanism), $(b,mpk) (WRPKRU call gate) \
           or $(b,syscall) (filtered kernel slowpath).")

let set_backend k = Sky_core.Backend.set_default k

(* --jobs N: run N identical replicas of the experiment concurrently on
   separate OCaml domains, each inside its own scoped simulator world,
   and fail unless every replica renders byte-identically. The printed
   result (and any artifact) is replica 0's, so output is unchanged
   from --jobs 1. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Run $(docv) identical replicas of the experiment on separate \
           OCaml domains, each in its own scoped simulator world, failing \
           unless all replicas produce byte-identical results — the \
           parallel-determinism smoke test. Output is replica 0's.")

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-10s %s\n" e.Registry.id e.Registry.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Print the result as JSON and write it to BENCH_<id>.json.")

(* Run [f] (as --jobs byte-compared replicas), print its table or its
   JSON, archive BENCH_<id>.json with --json, and return its failed
   checks, each prefixed with [id]. The host wall-clock and any host
   facts go to the artifact's "host" object and stderr; stdout stays
   byte-deterministic. *)
let emit ~json ~jobs id f =
  let t0 = Unix.gettimeofday () in
  let o =
    Par_harness.replicate ~jobs ~render:(fun o -> Sky_trace.Json.to_string o.Outcome.json) f
  in
  let seconds = Unix.gettimeofday () -. t0 in
  if json then begin
    let result = Sky_trace.Json.to_string o.json in
    print_endline result;
    let path = Artifact.write ~name:id ~seconds ~host:o.host result in
    Printf.eprintf "wrote %s (%.2fs host)\n" path seconds
  end
  else Tbl.print o.table;
  if o.host <> [] then
    Printf.eprintf "%s: host %s\n" id Sky_trace.Json.(to_string (Obj o.host));
  List.map (fun check -> id ^ ": " ^ check) o.failed

(* The one gate: exit 1 naming every failed check. *)
let gate = function
  | [] -> ()
  | failed ->
    List.iter (Printf.eprintf "acceptance failed: %s\n") failed;
    exit 1

let unknown id =
  Printf.eprintf "unknown experiment %S; try `skybench list`\n" id;
  exit 1

let run_cmd =
  let doc =
    "Run an experiment by id (or `all`) at the one configuration its \
     committed BENCH_<id>.json records. Exit code 0 iff every acceptance \
     gate holds; each failed check is named on stderr."
  in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let run id json jobs backend =
    set_backend backend;
    let budgets = Budget.load Budget.default_file in
    let entry e = emit ~json ~jobs e.Registry.id (fun () -> e.Registry.run budgets) in
    gate
      (match id with
      | "all" ->
        List.concat_map
          (fun e ->
            let failed = entry e in
            if not json then print_newline ();
            failed)
          Registry.all
      | _ -> (
        match Registry.find id with Some e -> entry e | None -> unknown id))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ id $ json_arg $ jobs_arg $ backend_arg)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let trace_cmd =
  let doc =
    "Run an experiment with the cycle tracer enabled; print its latency \
     histograms and per-category cycle attribution, and write a Chrome \
     trace_event JSON loadable in chrome://tracing or Perfetto."
  in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Trace output path (default $(docv) = <ID>.trace.json).")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:"Also write folded stacks for flamegraph.pl / speedscope.")
  in
  let run id out folded backend =
    set_backend backend;
    match Registry.find id with
    | None -> unknown id
    | Some e ->
      let budgets = Budget.load Budget.default_file in
      Sky_trace.Trace.enable ();
      let o = e.Registry.run budgets in
      Sky_trace.Trace.disable ();
      Tbl.print o.Outcome.table;
      print_newline ();
      Tbl.print
        (Tbl.of_categories
           ~title:(Printf.sprintf "%s: cycle attribution by trace category" id)
           (Sky_trace.Trace.categories ()));
      print_newline ();
      Tbl.print
        (Tbl.of_histograms
           ~title:(Printf.sprintf "%s: span latency histograms (cycles)" id)
           (Sky_trace.Trace.histograms ()));
      let path = match out with Some p -> p | None -> id ^ ".trace.json" in
      write_file path (Sky_trace.Chrome.export ());
      Printf.printf "\nwrote %s (%d events, %d dropped)\n" path
        (List.length (Sky_trace.Trace.events ()))
        (Sky_trace.Trace.dropped ());
      (match folded with
      | Some p ->
        write_file p (Sky_trace.Folded.export ());
        Printf.printf "wrote %s\n" p
      | None -> ());
      Sky_trace.Trace.clear ()
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ id $ out $ folded $ backend_arg)

let md_cmd =
  let doc = "Render every experiment as a markdown report (for EXPERIMENTS.md)." in
  let run () =
    let budgets = Budget.load Budget.default_file in
    List.iter
      (fun e -> print_string (Tbl.to_markdown (e.Registry.run budgets).Outcome.table))
      Registry.all
  in
  Cmd.v (Cmd.info "md" ~doc) Term.(const run $ const ())

let () =
  let doc = "SkyBridge (EuroSys'19) reproduction benchmarks" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "skybench" ~doc ~version:"1.0")
          [ list_cmd; run_cmd; md_cmd; trace_cmd ]))
