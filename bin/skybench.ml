(* skybench: run one (or all) of the paper's tables/figures.

   Usage:
     skybench list
     skybench run table4
     skybench run all
     skybench run table4 --json                     (machine-readable table)
     skybench run fig9 --records 10000 --ops 1000   (paper-scale YCSB)
     skybench trace fig7 -o trace.json              (Chrome/Perfetto trace) *)

open Cmdliner
open Sky_harness
open Sky_experiments

(* Every command takes --backend: the isolation mechanism carrying the
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

let budgets_arg =
  Arg.(
    value
    & opt string Budget.default_file
    & info [ "budgets" ] ~docv:"FILE" ~doc:"Budget file to gate against.")

(* The one runner behind `run` and every gated subcommand: run [f] (as
   --jobs byte-compared replicas), print its table or its JSON, archive
   BENCH_<id>.json with --json, and return its failed checks, each
   prefixed with [id]. The host wall-clock and any host facts go to the
   artifact's "host" object and stderr; stdout stays byte-deterministic. *)
let emit ~json ~jobs id f =
  let t0 = Unix.gettimeofday () in
  let o = Par_harness.replicate ~jobs ~render:(fun o -> o.Outcome.json) f in
  let seconds = Unix.gettimeofday () -. t0 in
  if json then begin
    print_endline o.json;
    let path = Artifact.write ~name:id ~seconds ~host:o.host o.json in
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
  let doc = "Run an experiment by id (or `all`)." in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let records =
    Arg.(value & opt (some int) None & info [ "records" ] ~doc:"YCSB table size")
  in
  let ops =
    Arg.(value & opt (some int) None & info [ "ops" ] ~doc:"YCSB ops per thread")
  in
  let run id records ops json jobs backend =
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
      | ("fig9" | "fig10" | "fig11") when records <> None || ops <> None ->
        let variant =
          match id with
          | "fig9" -> Sky_ukernel.Config.Sel4
          | "fig10" -> Sky_ukernel.Config.Fiasco
          | _ -> Sky_ukernel.Config.Zircon
        in
        emit ~json ~jobs id (fun () ->
            Outcome.of_table
              (Exp_ycsb.run_variant ?records ?ops_per_thread:ops variant))
      | _ -> (
        match Registry.find id with Some e -> entry e | None -> unknown id))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ id $ records $ ops $ json_arg $ jobs_arg $ backend_arg)

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

let audit_cmd =
  let doc =
    "Statically audit SkyBridge's security invariants: boot each kernel \
     personality, register a client/server/dependency topology (including \
     a client shipping C1/C2/C3 VMFUNC encodings), run traffic, then \
     verify no VMFUNC gadget survives outside the trampoline, EPT and \
     guest page tables are W^X with an execute-only trampoline, EPTP-list \
     slots are valid, and the trampoline code abstract-interprets \
     correctly. Exit code 0 iff every invariant holds."
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit violations as JSON.")
  in
  let run json jobs backend =
    set_backend backend;
    let viols prs = Sky_analysis.Audit.violations prs in
    (* Replica comparison renders names + violations only: per-pass
       timings are host wall-clock and legitimately differ. *)
    let render scenarios =
      String.concat ";"
        (List.map
           (fun (name, prs) ->
             name ^ "=" ^ Sky_analysis.Report.list_to_json (viols prs))
           scenarios)
    in
    let scenarios = Par_harness.replicate ~jobs ~render Exp_audit.scenarios in
    let total =
      List.fold_left
        (fun acc (_, prs) -> acc + List.length (viols prs))
        0 scenarios
    in
    if json then begin
      let pass_json (pr : Sky_analysis.Audit.pass_result) =
        Printf.sprintf "{\"pass\":\"%s\",\"ms\":%.3f,\"violations\":%s}"
          pr.Sky_analysis.Audit.pr_name pr.Sky_analysis.Audit.pr_ms
          (Sky_analysis.Report.list_to_json pr.Sky_analysis.Audit.pr_violations)
      in
      let scenario_json (name, prs) =
        let vs = viols prs in
        Printf.sprintf
          "{\"scenario\":\"%s\",\"ok\":%b,\"passes\":[%s],\"violations\":%s}"
          name (vs = [])
          (String.concat "," (List.map pass_json prs))
          (Sky_analysis.Report.list_to_json vs)
      in
      Printf.printf "{\"ok\":%b,\"passes\":[%s],\"scenarios\":[%s]}\n"
        (total = 0)
        (String.concat ","
           (List.map (Printf.sprintf "\"%s\"") Sky_analysis.Audit.pass_names))
        (String.concat "," (List.map scenario_json scenarios))
    end
    else
      List.iter
        (fun (name, prs) ->
          let timing =
            String.concat " "
              (List.map
                 (fun (pr : Sky_analysis.Audit.pass_result) ->
                   Printf.sprintf "%s:%.2fms" pr.Sky_analysis.Audit.pr_name
                     pr.Sky_analysis.Audit.pr_ms)
                 prs)
          in
          match viols prs with
          | [] ->
            Printf.printf "scenario %-8s OK (0 violations) [%s]\n" name timing
          | vs ->
            Printf.printf "scenario %-8s FAIL (%d violations) [%s]\n" name
              (List.length vs) timing;
            List.iter
              (fun v ->
                Printf.printf "  %s\n" (Sky_analysis.Report.to_string v))
              vs)
        scenarios;
    if total > 0 then exit 1
  in
  Cmd.v (Cmd.info "audit" ~doc) Term.(const run $ json $ jobs_arg $ backend_arg)

let chaos_cmd =
  let doc =
    "Run the KV pipeline, the SQLite/xv6fs stack, the web stack and the \
     URI-routed service mesh under a seeded, deterministic fault storm \
     (crashes, hangs, dropped replies, EPT faults, binding revocation) \
     and report the recovery census: \
     recovered, degraded (slowpath) and lost calls, server restarts, \
     forced §7 returns, post-storm audit and fsck. The same seed yields \
     a bit-identical census. Writes BENCH_chaos.json with --json. Exit \
     code 0 iff no call was lost, the post-storm audit is clean, and the \
     file system checks out."
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-plan seed.")
  in
  let run seed json jobs backend =
    set_backend backend;
    gate (emit ~json ~jobs "chaos" (fun () -> Exp_chaos.(outcome (run_chaos ~seed))))
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    Term.(const run $ seed $ json_arg $ jobs_arg $ backend_arg)

let web_cmd =
  let doc =
    "Run the web-serving macro-benchmark: closed-loop load generator → \
     RSS NIC → N skyhttpd workers (one per core) → KV + xv6fs backends, \
     sweeping worker counts 1..cores with the worker→backend hop over \
     SkyBridge direct calls and over the baseline kernel's synchronous \
     IPC. Writes BENCH_web.json with --json. Exit code 0 iff every \
     request was served and validated, SkyBridge throughput beats the \
     slowpath at every worker count, and SkyBridge throughput scales \
     monotonically with workers."
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let cores =
    Arg.(value & opt int 16 & info [ "cores" ] ~doc:"Simulated cores (= max workers).")
  in
  let conns =
    Arg.(
      value
      & opt int Sky_net.Web.default_conns
      & info [ "conns" ] ~doc:"Concurrent connections.")
  in
  let requests =
    Arg.(
      value
      & opt int Sky_net.Web.default_requests_per_conn
      & info [ "requests" ] ~doc:"Requests per connection.")
  in
  let run seed cores conns requests json jobs backend =
    set_backend backend;
    gate
      (emit ~json ~jobs "web" (fun () ->
           Exp_web.(
             outcome (run_curve ~seed ~cores ~conns ~requests_per_conn:requests ()))))
  in
  Cmd.v (Cmd.info "web" ~doc)
    Term.(
      const run $ seed $ cores $ conns $ requests $ json_arg $ jobs_arg
      $ backend_arg)

let mesh_cmd =
  let doc =
    "Run the composed service-mesh scenario: load generator → NIC (2 RX \
     rings) → 4 skyhttpd workers fanned out over one multi-receiver \
     endpoint (work stealing; two workers own no ring at all) → KV + \
     xv6fs + blockdev, every backend hop addressed purely by URI \
     (kv://, fs://, blk://) through the capability-routed mesh. Mid-run \
     the KV service is hot-upgraded make-before-break (grant v2, flip \
     the name, revoke v1) and one worker's fs:// capability is revoked \
     — its requests bounce to privileged peers. Writes BENCH_mesh.json \
     with --json; the JSON is byte-deterministic, so CI diffs two \
     same-seed runs. Exit code 0 iff every request was served and \
     validated, requests fanned out across all workers, both KV \
     generations served traffic, denials were absorbed without loss, \
     the mesh and subkernel audits are clean, and no stale mapping \
     outlived a revocation."
  in
  let seed =
    Arg.(
      value
      & opt int Exp_mesh.default_seed
      & info [ "seed" ] ~doc:"Workload seed.")
  in
  let run seed json backend =
    set_backend backend;
    gate (emit ~json ~jobs:1 "mesh" (fun () -> Exp_mesh.(outcome (run_mesh ~seed ()))))
  in
  Cmd.v (Cmd.info "mesh" ~doc) Term.(const run $ seed $ json_arg $ backend_arg)

let perf_cmd =
  let doc =
    "Run the pingpong perf gate: measure SkyBridge direct-call cycles \
     under TLB pressure with the translation-acceleration structures on \
     and off, write BENCH_pingpong.json, and fail if cycles-per-call \
     (accel on) exceeds the budget in bench/budgets.json by more than \
     2%, or if acceleration does not beat the cache-free walker. The \
     JSON on stdout is byte-deterministic, so CI diffs two same-seed \
     runs to catch nondeterminism."
  in
  let run json budgets jobs backend =
    set_backend backend;
    let budgets = Budget.load budgets in
    gate
      (emit ~json ~jobs "pingpong" (fun () ->
           Exp_pingpong.(outcome budgets (run_result ()))))
  in
  Cmd.v (Cmd.info "perf" ~doc)
    Term.(const run $ json_arg $ budgets_arg $ jobs_arg $ backend_arg)

let overload_cmd =
  let doc =
    "Run the overload scenario: a closed-loop probe fixes the saturation \
     rate, then an open-loop Poisson generator offers 0.5x-2x that rate \
     to the admission-controlled server (bounded endpoint queues shedding \
     typed 503s, request TTLs propagated as backend timeouts, batched KV \
     crossings, token-bucket retry budgets), re-runs the 2x point under a \
     worker+backend+nameserv fault storm, and drives hundreds of \
     short-lived tenant processes into EPTP-list and global-binding \
     eviction. Writes BENCH_overload.json with --json; the JSON is \
     byte-deterministic, so CI diffs two same-seed runs. Exit code 0 iff \
     every offered request is accounted for with zero lost-or-corrupt \
     admitted requests, goodput at 2x holds the budgeted fraction of \
     saturation, p99.9 of admitted requests stays within budget, the \
     storm was survived with clean audits, and slot-evicted tenants \
     degraded to slowpath instead of failing."
  in
  let seed =
    Arg.(
      value
      & opt int Exp_overload.default_seed
      & info [ "seed" ] ~doc:"Workload seed.")
  in
  let workers =
    Arg.(value & opt int 3 & info [ "workers" ] ~doc:"skyhttpd workers.")
  in
  let arrivals =
    Arg.(
      value & opt int 1600
      & info [ "arrivals" ] ~doc:"Open-loop arrivals per sweep point.")
  in
  let scale_tenants =
    Arg.(
      value & opt int 240
      & info [ "scale-tenants" ]
          ~doc:"Short-lived tenant processes in the eviction phase.")
  in
  let run seed workers arrivals scale_tenants json budgets jobs backend =
    set_backend backend;
    let budgets = Budget.load budgets in
    gate
      (emit ~json ~jobs "overload" (fun () ->
           Exp_overload.(
             outcome budgets
               (run_overload ~seed ~workers ~total:arrivals ~scale_tenants ()))))
  in
  Cmd.v (Cmd.info "overload" ~doc)
    Term.(
      const run $ seed $ workers $ arrivals $ scale_tenants $ json_arg
      $ budgets_arg $ jobs_arg $ backend_arg)

let matrix_cmd =
  let doc =
    "Run the cross-mechanism showdown: drive the pingpong cost probe, a \
     deterministic crash/hang/revoke mini-storm over the KV pipeline, and \
     the full post-storm audit against all three isolation backends \
     (VMFUNC EPTP switching, ERIM-style MPK, filtered syscall) and emit \
     one cost/security matrix. Writes BENCH_matrix.json with --json; the \
     JSON is byte-deterministic, so CI diffs two same-seed runs. Exit \
     code 0 iff every backend recovers the identical fault schedule with \
     zero lost calls and a clean audit (including the WRPKRU binary scan \
     under MPK and the entry-filter pass under syscall), MPK's cycles per \
     call land strictly below VMFUNC's, and VMFUNC stays within 2% of \
     the pingpong budget in bench/budgets.json."
  in
  let seed =
    Arg.(
      value
      & opt int Exp_matrix.default_seed
      & info [ "seed" ] ~doc:"Fault-plan seed.")
  in
  let run seed json budgets =
    let budgets = Budget.load budgets in
    gate
      (emit ~json ~jobs:1 "matrix" (fun () ->
           Exp_matrix.(outcome budgets (run_matrix ~seed ()))))
  in
  Cmd.v (Cmd.info "matrix" ~doc) Term.(const run $ seed $ json_arg $ budgets_arg)

let parallel_cmd =
  let doc =
    "Run the quantum-scheduler gate: build clusters of independent \
     web-serving shards (each a full machine + skyhttpd + load generator \
     in its own scoped simulator world, with per-shard fault storms \
     armed) and prove the parallel engine is bit-identical to the \
     sequential one — Seq vs Par at the same quantum on every isolation \
     backend, chunked vs unchunked scheduling, and two different quantum \
     sizes — then wall-clock a 4x4-shard cluster sequentially and on \
     OCaml domains in three alternating pairs for the host-speedup gate \
     (median pair speedup). The speedup bar is \
     min(2.0, 0.65 x min(jobs, Domain.recommended_domain_count)), and \
     the gate is explicitly waived (not faked) on a single-domain host. \
     With --json, stdout carries no host data and is byte-deterministic, \
     so CI diffs two runs; BENCH_parallel.json records the host's domain \
     count, pair seconds, speedup and verdict under \"host\", which \
     stderr also prints. Exit code 0 iff every equivalence digest \
     matches and the speedup gate does not fail."
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let run seed json backend =
    set_backend backend;
    gate
      (emit ~json ~jobs:1 "parallel" (fun () ->
           Exp_parallel.(outcome (run_full ~seed ()))))
  in
  Cmd.v (Cmd.info "parallel" ~doc)
    Term.(const run $ seed $ json_arg $ backend_arg)

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
          [
            list_cmd; run_cmd; md_cmd; trace_cmd; audit_cmd; chaos_cmd;
            web_cmd; mesh_cmd; perf_cmd; overload_cmd; matrix_cmd;
            parallel_cmd;
          ]))
