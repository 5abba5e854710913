(* skybench: run one (or all) of the paper's tables/figures.

   Usage:
     skybench list
     skybench run table4
     skybench run all
     skybench run table4 --json                     (machine-readable table)
     skybench run fig9 --records 10000 --ops 1000   (paper-scale YCSB)
     skybench trace fig7 -o trace.json              (Chrome/Perfetto trace) *)

open Cmdliner

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

let replicate ~jobs ~render f = Sky_experiments.Par_harness.replicate ~jobs ~render f

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-10s %s\n" e.Sky_experiments.Registry.id
          e.Sky_experiments.Registry.title)
      Sky_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* Host wall-clock of producing a result; recorded in BENCH artifacts
   next to the simulated cycles (stdout JSON stays byte-deterministic). *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* With --json, every result is also archived as BENCH_<id>.json so CI
   can glob one pattern and benchmark trajectories survive the run. *)
let emit ?artifact ~json run =
  let tbl, host_seconds = timed run in
  if json then begin
    let j = Sky_harness.Tbl.to_json tbl in
    print_endline j;
    match artifact with
    | Some name ->
      let path = Sky_harness.Artifact.write ~name ~host_seconds j in
      Printf.eprintf "wrote %s (%.2fs host)\n" path host_seconds
    | None -> ()
  end
  else Sky_harness.Tbl.print tbl

let run_one ~records ~ops ~json ~wrap id =
  match id with
  | "fig9" | "fig10" | "fig11" when records <> None || ops <> None ->
    let variant =
      match id with
      | "fig9" -> Sky_ukernel.Config.Sel4
      | "fig10" -> Sky_ukernel.Config.Fiasco
      | _ -> Sky_ukernel.Config.Zircon
    in
    emit ~artifact:id ~json
      (wrap (fun () ->
           Sky_experiments.Exp_ycsb.run_variant ?records ?ops_per_thread:ops
             variant))
  | _ -> (
    match Sky_experiments.Registry.find id with
    | Some e -> emit ~artifact:id ~json (wrap e.Sky_experiments.Registry.run)
    | None ->
      Printf.eprintf "unknown experiment %S; try `skybench list`\n" id;
      exit 1)

let run_cmd =
  let doc = "Run an experiment by id (or `all`)." in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let records =
    Arg.(value & opt (some int) None & info [ "records" ] ~doc:"YCSB table size")
  in
  let ops =
    Arg.(value & opt (some int) None & info [ "ops" ] ~doc:"YCSB ops per thread")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result table as JSON.")
  in
  let run id records ops json jobs backend =
    set_backend backend;
    let wrap r () = replicate ~jobs ~render:Sky_harness.Tbl.to_json r in
    if id = "all" then
      List.iter
        (fun e ->
          emit ~artifact:e.Sky_experiments.Registry.id ~json
            (wrap e.Sky_experiments.Registry.run);
          if not json then print_newline ())
        Sky_experiments.Registry.all
    else run_one ~records ~ops ~json ~wrap id
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ id $ records $ ops $ json $ jobs_arg $ backend_arg)

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
    match Sky_experiments.Registry.find id with
    | None ->
      Printf.eprintf "unknown experiment %S; try `skybench list`\n" id;
      exit 1
    | Some e ->
      Sky_trace.Trace.enable ();
      let tbl = e.Sky_experiments.Registry.run () in
      Sky_trace.Trace.disable ();
      Sky_harness.Tbl.print tbl;
      print_newline ();
      Sky_harness.Tbl.print
        (Sky_harness.Tbl.of_categories
           ~title:(Printf.sprintf "%s: cycle attribution by trace category" id)
           (Sky_trace.Trace.categories ()));
      print_newline ();
      Sky_harness.Tbl.print
        (Sky_harness.Tbl.of_histograms
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
    let scenarios =
      replicate ~jobs ~render Sky_experiments.Exp_audit.scenarios
    in
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
     a bit-identical census. Exit code 0 iff no call was lost, the \
     post-storm audit is clean, and the file system checks out."
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-plan seed.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the census as JSON.")
  in
  let run seed json jobs backend =
    set_backend backend;
    let c =
      replicate ~jobs ~render:Sky_experiments.Exp_chaos.census_to_json
        (fun () -> Sky_experiments.Exp_chaos.run_chaos ~seed)
    in
    if json then print_endline (Sky_experiments.Exp_chaos.census_to_json c)
    else Sky_harness.Tbl.print (Sky_experiments.Exp_chaos.census_table c);
    if not (Sky_experiments.Exp_chaos.clean c) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    Term.(const run $ seed $ json $ jobs_arg $ backend_arg)

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
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the results as JSON and write BENCH_web.json.")
  in
  let no_accel =
    Arg.(
      value & flag
      & info [ "no-accel" ]
          ~doc:
            "Disable the translation-acceleration structures (PSCs, EPT \
             walk cache, hot lines) for this run — the cache-free \
             reference walker, for host wall-clock comparisons.")
  in
  let run seed cores conns requests json no_accel jobs backend =
    set_backend backend;
    if no_accel then Sky_sim.Accel.set_enabled false;
    let r, host_seconds =
      timed (fun () ->
          replicate ~jobs ~render:Sky_experiments.Exp_web.to_json (fun () ->
              Sky_experiments.Exp_web.run_curve ~seed ~cores ~conns
                ~requests_per_conn:requests ()))
    in
    if json then begin
      let j = Sky_experiments.Exp_web.to_json r in
      print_endline j;
      let path = Sky_harness.Artifact.write ~name:"web" ~host_seconds j in
      Printf.eprintf "wrote %s (%.2fs host)\n" path host_seconds
    end
    else Sky_harness.Tbl.print (Sky_experiments.Exp_web.table r);
    if not (Sky_experiments.Exp_web.ok r) then begin
      Printf.eprintf
        "web: acceptance failed (served=%b sky-ahead=%b monotone=%b)\n"
        (Sky_experiments.Exp_web.all_served r)
        (Sky_experiments.Exp_web.sky_always_ahead r)
        (Sky_experiments.Exp_web.sky_monotone r);
      exit 1
    end
  in
  Cmd.v (Cmd.info "web" ~doc)
    Term.(
      const run $ seed $ cores $ conns $ requests $ json $ no_accel
      $ jobs_arg $ backend_arg)

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
     and the mesh and subkernel audits are clean."
  in
  let seed =
    Arg.(
      value
      & opt int Sky_experiments.Exp_mesh.default_seed
      & info [ "seed" ] ~doc:"Workload seed.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the result as JSON and write BENCH_mesh.json.")
  in
  let run seed json backend =
    set_backend backend;
    let r, host_seconds =
      timed (fun () -> Sky_experiments.Exp_mesh.run_mesh ~seed ())
    in
    if json then begin
      let j = Sky_experiments.Exp_mesh.to_json r in
      print_endline j;
      let path = Sky_harness.Artifact.write ~name:"mesh" ~host_seconds j in
      Printf.eprintf "wrote %s (%.2fs host)\n" path host_seconds
    end
    else Sky_harness.Tbl.print (Sky_experiments.Exp_mesh.table r);
    if not (Sky_experiments.Exp_mesh.ok r) then begin
      Printf.eprintf
        "mesh: acceptance failed (served=%b fanout=%b upgraded=%b \
         degraded=%b audits=%b lost=%d)\n"
        (Sky_experiments.Exp_mesh.all_served r)
        (Sky_experiments.Exp_mesh.fanned_out r)
        (Sky_experiments.Exp_mesh.upgraded r)
        (Sky_experiments.Exp_mesh.degraded r)
        (Sky_experiments.Exp_mesh.audits_clean r)
        r.Sky_experiments.Exp_mesh.m_lost;
      exit 1
    end
  in
  Cmd.v (Cmd.info "mesh" ~doc) Term.(const run $ seed $ json $ backend_arg)

(* bench/budgets.json is flat enough ({"pingpong":{"cycles_per_call":N}})
   that a substring scan beats pulling in a JSON parser dependency. Finds
   the first integer after ["key":] following ["section":]. *)
let budget_of ~file ~section ~key =
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let find_from pos pat =
    let plen = String.length pat in
    let rec go i =
      if i + plen > String.length s then None
      else if String.sub s i plen = pat then Some (i + plen)
      else go (i + 1)
    in
    go pos
  in
  match find_from 0 (Printf.sprintf "\"%s\"" section) with
  | None -> None
  | Some p -> (
    match find_from p (Printf.sprintf "\"%s\"" key) with
    | None -> None
    | Some p ->
      let len = String.length s in
      let rec skip i =
        if i < len && (s.[i] = ':' || s.[i] = ' ') then skip (i + 1) else i
      in
      let start = skip p in
      let rec stop i = if i < len && s.[i] >= '0' && s.[i] <= '9' then stop (i + 1) else i in
      let e = stop start in
      if e > start then Some (int_of_string (String.sub s start (e - start)))
      else None)

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
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON.")
  in
  let budgets =
    Arg.(
      value
      & opt string "bench/budgets.json"
      & info [ "budgets" ] ~docv:"FILE" ~doc:"Budget file to gate against.")
  in
  let run json budgets jobs backend =
    set_backend backend;
    let r, host_seconds =
      timed (fun () ->
          replicate ~jobs ~render:Sky_experiments.Exp_pingpong.to_json
            Sky_experiments.Exp_pingpong.run_result)
    in
    if json then begin
      let j = Sky_experiments.Exp_pingpong.to_json r in
      print_endline j;
      let path = Sky_harness.Artifact.write ~name:"pingpong" ~host_seconds j in
      Printf.eprintf "wrote %s (%.2fs host)\n" path host_seconds
    end
    else Sky_harness.Tbl.print (Sky_experiments.Exp_pingpong.table r);
    let cpc = r.Sky_experiments.Exp_pingpong.cycles_per_call in
    let cpc_off = r.Sky_experiments.Exp_pingpong.cycles_per_call_noaccel in
    if cpc >= cpc_off then begin
      Printf.eprintf
        "perf: acceleration does not pay: %d cycles/call on vs %d off\n" cpc
        cpc_off;
      exit 1
    end;
    if Sys.file_exists budgets then
      match budget_of ~file:budgets ~section:"pingpong" ~key:"cycles_per_call" with
      | None ->
        Printf.eprintf "perf: no pingpong.cycles_per_call budget in %s\n" budgets;
        exit 1
      | Some budget ->
        let limit = budget * 102 / 100 in
        if cpc > limit then begin
          Printf.eprintf
            "perf: REGRESSION: %d cycles/call exceeds budget %d (+2%% = %d)\n"
            cpc budget limit;
          exit 1
        end
        else
          Printf.eprintf "perf: %d cycles/call within budget %d (+2%% = %d)\n"
            cpc budget limit
    else Printf.eprintf "perf: %s not found; skipping budget gate\n" budgets
  in
  Cmd.v (Cmd.info "perf" ~doc)
    Term.(const run $ json $ budgets $ jobs_arg $ backend_arg)

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
      & opt int Sky_experiments.Exp_overload.default_seed
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
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the result as JSON and write BENCH_overload.json.")
  in
  let budgets =
    Arg.(
      value
      & opt string "bench/budgets.json"
      & info [ "budgets" ] ~docv:"FILE" ~doc:"Budget file to gate against.")
  in
  let run seed workers arrivals scale_tenants json budgets jobs backend =
    set_backend backend;
    let r, host_seconds =
      timed (fun () ->
          replicate ~jobs ~render:Sky_experiments.Exp_overload.to_json
            (fun () ->
              Sky_experiments.Exp_overload.run_overload ~seed ~workers
                ~total:arrivals ~scale_tenants ()))
    in
    if json then begin
      let j = Sky_experiments.Exp_overload.to_json r in
      print_endline j;
      let path = Sky_harness.Artifact.write ~name:"overload" ~host_seconds j in
      Printf.eprintf "wrote %s (%.2fs host)\n" path host_seconds
    end
    else Sky_harness.Tbl.print (Sky_experiments.Exp_overload.table r);
    (* Structural gates (zero lost/corrupt, sheds under overload, chaos
       survived, tenants evicted) with the built-in goodput floor ... *)
    let floor, floor_src =
      if Sys.file_exists budgets then
        match
          budget_of ~file:budgets ~section:"overload" ~key:"goodput_floor_pct"
        with
        | Some pct -> (float_of_int pct /. 100.0, budgets)
        | None -> (0.5, "default")
      else (0.5, "default")
    in
    if not (Sky_experiments.Exp_overload.ok ~floor r) then begin
      Printf.eprintf
        "overload: acceptance failed (zero_lost=%b goodput_ratio=%.3f \
         floor=%.2f[%s] sheds=%b chaos_active=%b chaos_clean=%b \
         tenants_evicted=%b)\n"
        (Sky_experiments.Exp_overload.zero_lost r)
        (Sky_experiments.Exp_overload.goodput_ratio r)
        floor floor_src
        (Sky_experiments.Exp_overload.overload_sheds r)
        (Sky_experiments.Exp_overload.chaos_active r)
        (Sky_experiments.Exp_overload.chaos_clean r)
        (Sky_experiments.Exp_overload.tenants_evicted r);
      exit 1
    end;
    (* ... and the p99.9 regression budget on admitted requests at 2x. *)
    (if Sys.file_exists budgets then
       match budget_of ~file:budgets ~section:"overload" ~key:"p999_cycles" with
       | None ->
         Printf.eprintf "overload: no overload.p999_cycles budget in %s\n"
           budgets;
         exit 1
       | Some budget ->
         let p999 =
           match
             List.find_opt
               (fun p -> p.Sky_experiments.Exp_overload.p_mult = 2.0)
               r.Sky_experiments.Exp_overload.r_points
           with
           | Some p -> p.Sky_experiments.Exp_overload.p_p999
           | None -> max_int
         in
         let limit = budget * 102 / 100 in
         if p999 > limit then begin
           Printf.eprintf
             "overload: REGRESSION: p99.9 %d cycles exceeds budget %d (+2%% \
              = %d)\n"
             p999 budget limit;
           exit 1
         end
         else
           Printf.eprintf "overload: p99.9 %d within budget %d (+2%% = %d)\n"
             p999 budget limit
     else Printf.eprintf "overload: %s not found; skipping budget gate\n" budgets);
    Printf.eprintf
      "overload: goodput ratio %.3f >= floor %.2f; zero lost/corrupt\n"
      (Sky_experiments.Exp_overload.goodput_ratio r)
      floor
  in
  Cmd.v (Cmd.info "overload" ~doc)
    Term.(
      const run $ seed $ workers $ arrivals $ scale_tenants $ json $ budgets
      $ jobs_arg $ backend_arg)

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
      & opt int Sky_experiments.Exp_matrix.default_seed
      & info [ "seed" ] ~doc:"Fault-plan seed.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the matrix as JSON and write BENCH_matrix.json.")
  in
  let budgets =
    Arg.(
      value
      & opt string "bench/budgets.json"
      & info [ "budgets" ] ~docv:"FILE" ~doc:"Budget file to gate against.")
  in
  let run seed json budgets =
    let r = Sky_experiments.Exp_matrix.run_matrix ~seed () in
    if json then begin
      let j = Sky_experiments.Exp_matrix.to_json r in
      print_endline j;
      (* No host_seconds wrapper: the artifact itself is the
         byte-determinism witness CI diffs across two runs. *)
      let path = Sky_harness.Artifact.write ~name:"matrix" j in
      Printf.eprintf "wrote %s\n" path
    end
    else Sky_harness.Tbl.print (Sky_experiments.Exp_matrix.table r);
    if not (Sky_experiments.Exp_matrix.ok r) then begin
      Printf.eprintf
        "matrix: acceptance failed (zero_lost=%b audits_clean=%b \
         mpk_beats_vmfunc=%b recovered=%b)\n"
        (Sky_experiments.Exp_matrix.zero_lost r)
        (Sky_experiments.Exp_matrix.audits_clean r)
        (Sky_experiments.Exp_matrix.mpk_beats_vmfunc r)
        (Sky_experiments.Exp_matrix.recovered_under_storm r);
      exit 1
    end;
    let vmfunc_cpc = Sky_experiments.Exp_matrix.cycles r Sky_core.Backend.Vmfunc in
    (if Sys.file_exists budgets then
       match
         budget_of ~file:budgets ~section:"pingpong" ~key:"cycles_per_call"
       with
       | None ->
         Printf.eprintf "matrix: no pingpong.cycles_per_call budget in %s\n"
           budgets;
         exit 1
       | Some budget ->
         let limit = budget * 102 / 100 in
         if vmfunc_cpc > limit then begin
           Printf.eprintf
             "matrix: REGRESSION: vmfunc %d cycles/call exceeds budget %d \
              (+2%% = %d)\n"
             vmfunc_cpc budget limit;
           exit 1
         end
         else
           Printf.eprintf
             "matrix: vmfunc %d cycles/call within budget %d (+2%% = %d)\n"
             vmfunc_cpc budget limit
     else Printf.eprintf "matrix: %s not found; skipping budget gate\n" budgets);
    Printf.eprintf
      "matrix: mpk %d < vmfunc %d < syscall %d cycles/call; zero lost, \
       clean audits on all backends\n"
      (Sky_experiments.Exp_matrix.cycles r Sky_core.Backend.Mpk)
      vmfunc_cpc
      (Sky_experiments.Exp_matrix.cycles r Sky_core.Backend.Syscall)
  in
  Cmd.v (Cmd.info "matrix" ~doc) Term.(const run $ seed $ json $ budgets)

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
     so CI diffs two runs; BENCH_parallel.json adds the host's domain \
     count and verdict, and raw wall seconds go to stderr only. Exit \
     code 0 iff every equivalence digest matches and the speedup gate \
     does not fail."
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the result as JSON and write BENCH_parallel.json.")
  in
  let run seed json backend =
    set_backend backend;
    let r =
      Sky_experiments.Exp_parallel.run_full ~seed ~now:Unix.gettimeofday ()
    in
    if json then begin
      let j = Sky_experiments.Exp_parallel.to_json r in
      print_endline j;
      (* No host_seconds wrapper, and stdout carries no host data, so two
         runs print byte-identical JSON. The host context (domain count,
         jobs, gate verdict) rides along in the artifact only. *)
      let path =
        Sky_harness.Artifact.write ~name:"parallel"
          ~host_json:(Sky_experiments.Exp_parallel.host_json r)
          j
      in
      Printf.eprintf "wrote %s\n" path
    end
    else Sky_harness.Tbl.print (Sky_experiments.Exp_parallel.table r);
    Printf.eprintf
      "parallel: %d host domain(s), par jobs=%d, seq/par seconds %s -> \
       median speedup %.2fx -> gate %s\n"
      r.Sky_experiments.Exp_parallel.r_host_domains
      r.Sky_experiments.Exp_parallel.r_jobs
      (String.concat " "
         (List.map
            (fun (s, p) -> Printf.sprintf "%.2f/%.2f" s p)
            r.Sky_experiments.Exp_parallel.r_pairs))
      r.Sky_experiments.Exp_parallel.r_speedup
      r.Sky_experiments.Exp_parallel.r_gate;
    if not (Sky_experiments.Exp_parallel.ok r) then begin
      Printf.eprintf
        "parallel: acceptance failed (all_identical=%b gate=%s)\n"
        (Sky_experiments.Exp_parallel.all_identical r)
        r.Sky_experiments.Exp_parallel.r_gate;
      exit 1
    end
  in
  Cmd.v (Cmd.info "parallel" ~doc)
    Term.(const run $ seed $ json $ backend_arg)

let md_cmd =
  let doc = "Render every experiment as a markdown report (for EXPERIMENTS.md)." in
  let run () =
    List.iter
      (fun e ->
        print_string
          (Sky_harness.Tbl.to_markdown (e.Sky_experiments.Registry.run ())))
      Sky_experiments.Registry.all
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
