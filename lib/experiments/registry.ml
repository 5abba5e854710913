(** Experiment registry: one entry per paper table/figure (plus the
    ablations and the gated experiments), consumed by bin/skybench.ml.
    Every entry runs its experiment, at the one configuration its
    committed BENCH_<id>.json records, against the given perf budgets
    and returns one {!Sky_harness.Outcome.t}, which `skybench run <id>`
    prints, archives and gates. *)

type entry = {
  id : string;
  title : string;
  run : Sky_harness.Budget.t -> Sky_harness.Outcome.t;
}

(* A paper table or figure: it reads no budget and gates nothing. *)
let table f (_ : Sky_harness.Budget.t) = Sky_harness.Outcome.of_table (f ())

let all =
  [
    { id = "table1"; title = "Table 1: processor-structure pollution";
      run = table Exp_kv.run_table1 };
    { id = "table2"; title = "Table 2: instruction latencies"; run = table Exp_table2.run };
    { id = "fig2"; title = "Figure 2: KV-store latency (baselines)";
      run = table Exp_kv.run_fig2 };
    { id = "fig7"; title = "Figure 7: IPC breakdown"; run = table Exp_fig7.run };
    { id = "fig8"; title = "Figure 8: KV-store latency with SkyBridge";
      run = table Exp_kv.run_fig8 };
    { id = "table4"; title = "Table 4: SQLite3 operations"; run = table Exp_table4.run };
    { id = "fig9"; title = "Figure 9: YCSB-A on seL4"; run = table Exp_ycsb.run_fig9 };
    { id = "fig10"; title = "Figure 10: YCSB-A on Fiasco.OC"; run = table Exp_ycsb.run_fig10 };
    { id = "fig11"; title = "Figure 11: YCSB-A on Zircon"; run = table Exp_ycsb.run_fig11 };
    { id = "table5"; title = "Table 5: Rootkernel virtualization overhead";
      run = table Exp_table5.run };
    { id = "table6"; title = "Table 6: inadvertent VMFUNC scan";
      run = table (fun () -> Exp_table6.run ()) };
    { id = "gadgets"; title = "Audit: VMFUNC occurrences by case (ERIM-style)";
      run = table Exp_table6.gadgets };
    { id = "audit"; title = "Audit: whole-machine security invariants per scenario";
      run = Exp_audit.run };
    { id = "ablation"; title = "Ablations: design choices"; run = table Exp_ablation.run };
    { id = "monolithic"; title = "Extension: SkyBridge on a monolithic kernel (SS10)";
      run = table Exp_extensions.run_monolithic };
    { id = "tempmap"; title = "Extension: temporary mapping for long IPC (SS8.1)";
      run = table Exp_extensions.run_tempmap };
    { id = "scheduling"; title = "Extension: lazy vs Benno scheduling (SS8.1)";
      run = table Exp_scheduling.run };
    { id = "chaos"; title = "Chaos: fault storm + crash recovery census (SS7)";
      run = Exp_chaos.run };
    { id = "web"; title = "Web serving: throughput vs workers, SkyBridge vs slowpath IPC";
      run = Exp_web.run };
    { id = "mesh";
      title = "Service mesh: URI-routed composed stack, hot upgrade + revocation";
      run = Exp_mesh.run };
    { id = "ycsbmix"; title = "Extension: YCSB A/B/C mix sensitivity";
      run = table Exp_extensions.run_ycsb_mix };
    { id = "pingpong";
      title = "Pingpong: direct-call cycles under TLB pressure, accel on/off";
      run = Exp_pingpong.run };
    { id = "overload";
      title = "Overload: open-loop load, admission control, chaos at saturation";
      run = Exp_overload.run };
    { id = "matrix";
      title = "Showdown: VMFUNC vs MPK vs filtered syscall, cost + recovery + audit";
      run = Exp_matrix.run };
    { id = "parallel";
      title = "Parallel: quantum-synchronized simulation on OCaml domains";
      run = Exp_parallel.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
