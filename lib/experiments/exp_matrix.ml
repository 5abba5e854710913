(** The cross-mechanism showdown: every isolation backend — VMFUNC
    EPTP switching, ERIM-style MPK, the filtered-syscall slowpath —
    driven through the same three probes, one matrix out.

    Per backend ({!Sky_core.Backend.with_default} re-points every
    [Subkernel.init] in the probes, so the probes themselves are
    backend-blind):

    - {b cost}: the pingpong rig ({!Exp_pingpong.measure_full}) under
      TLB pressure, with the Figure-7 attribution separating the
      architectural switch legs from kernel round trips;
    - {b recovery}: a deterministic mini-storm over the §2.1.2 KV
      pipeline — server crashes, a hang past the watchdog, a binding
      revocation mid-traffic — where every injected fault must end
      recovered (restart + rebind), degraded (slowpath) or as a typed
      error, never lost;
    - {b security}: the full post-storm audit, reported per pass, so
      each mechanism is seen passing {e its own} argument (the WRPKRU
      scan for MPK, the entry filter for syscall, the gadget/EPT pair
      for VMFUNC) on a machine that just went through crash recovery.

    Everything is seeded and cycle-deterministic: the same seed yields
    a byte-identical matrix, which is what BENCH_matrix.json archives
    and CI diffs across two runs. *)

open Sky_harness
module Fault = Sky_faults.Fault
module Subkernel = Sky_core.Subkernel
module Backend = Sky_core.Backend

(* The mini-storm: deterministic At_hit triggers only, so all three
   backends face the identical fault schedule and the matrix rows stay
   comparable call-for-call. *)
let storm seed =
  Fault.reset ~seed ();
  Fault.arm ~budget:2 ~site:"server.enc-server" ~kind:Fault.Crash
    (Fault.At_hit 20);
  Fault.arm ~budget:2 ~site:"server.kv-server" ~kind:Fault.Crash
    (Fault.At_hit 55);
  Fault.arm ~budget:1 ~site:"server.kv-server" ~kind:Fault.Hang
    (Fault.At_hit 90);
  Fault.arm ~budget:1 ~site:"subkernel.call" ~kind:Fault.Revoke
    (Fault.At_hit 130)

let run_cell ~seed kind =
  Backend.with_default kind @@ fun () ->
  let ping = Exp_pingpong.measure_full () in
  let { Exp_chaos.k_stats = st; k_gave_up; k_sb = sb } =
    Exp_chaos.run_kv_storm ~warm:16 ~ops:200 (fun () -> storm seed)
  in
  let injected =
    List.fold_left (fun a (_, n) -> a + n) 0 (Fault.fired_counts ())
  in
  let open Sky_trace.Json in
  let audit =
    List.map
      (fun (pr : Sky_analysis.Audit.pass_result) ->
        (pr.Sky_analysis.Audit.pr_name, Int (List.length pr.Sky_analysis.Audit.pr_violations)))
      (Subkernel.audit_passes sb)
  in
  Obj
    [
      ("backend", String (Backend.name kind));
      ("title", String (Backend.title kind));
      ("cycles_per_call", Int ping.Exp_pingpong.f_cycles_per_call);
      ("switch_cycles_leg", Int (Backend.switch_cycles kind));
      ("switch_cycles_per_call", Int ping.Exp_pingpong.f_switch_per_call);
      ("kernel_cycles_per_call", Int ping.Exp_pingpong.f_kernel_per_call);
      ("copy_cycles_per_call", Int ping.Exp_pingpong.f_copy_per_call);
      ("kernel_on_path", Bool (Backend.kernel_on_path kind));
      ("tlb_flush_on_switch", Bool (Backend.tlb_flush_on_switch kind));
      ("shared_address_space", Bool (Backend.shared_address_space kind));
      ("injected", Int injected);
      ("attempts", Int st.Sky_core.Retry.attempts);
      ("recovered", Int st.Sky_core.Retry.retried_ok);
      ("degraded", Int st.Sky_core.Retry.degraded);
      ("lost", Int (st.Sky_core.Retry.lost + k_gave_up));
      ("restarts", Int st.Sky_core.Retry.restarts);
      ("forced_returns", Int (Subkernel.forced_returns sb));
      (* post-storm violations per audit pass *)
      ("audit", Obj audit);
    ]

(* ---- gates: predicates over the cells ---- *)

let cycles cells kind =
  Outcome.int
    (List.find (fun c -> Outcome.string c "backend" = Backend.name kind) cells)
    "cycles_per_call"

let zero_lost cells = List.for_all (fun c -> Outcome.int c "lost" = 0) cells
let audits_clean cells = List.for_all (fun c -> Exp_chaos.total c "audit" = 0) cells

(** The headline claim: the WRPKRU switch beats VMFUNC on the identical
    workload (strictly — both legs are cheaper and nothing else in the
    crossing changed). *)
let mpk_beats_vmfunc cells = cycles cells Backend.Mpk < cycles cells Backend.Vmfunc

let recovered_under_storm cells =
  List.for_all (fun c -> Outcome.(int c "injected" > 0 && int c "restarts" > 0)) cells

let structural cells =
  [
    ("zero_lost", zero_lost cells);
    ("audits_clean", audits_clean cells);
    ("mpk_beats_vmfunc", mpk_beats_vmfunc cells);
    ("recovered_under_storm", recovered_under_storm cells);
  ]

let run_matrix () =
  let seed = 7 in
  let cells = List.map (run_cell ~seed) Backend.all in
  Sky_trace.Json.(
    Obj
      [
        ("seed", Int seed);
        ("ok", Bool (List.for_all snd (structural cells)));
        ("mpk_beats_vmfunc", Bool (mpk_beats_vmfunc cells));
        ("cells", List cells);
      ])

(* The structural gates, and every cell's cycles per call against its
   own mechanism's pingpong budget. *)
let checks budgets r =
  let cells = Outcome.list r "cells" in
  structural cells
  @ List.map
      (fun c ->
        Budget.ceiling budgets ~section:"pingpong" ~key:"cycles_per_call"
          ~backend:(Outcome.string c "backend")
          (Outcome.int c "cycles_per_call"))
      cells

(* ---- rendering ---- *)

let table r =
  let yes_no c key = if Outcome.bool c key then "yes" else "no" in
  let row c =
    let n key = string_of_int (Outcome.int c key) in
    [
      Outcome.string c "backend";
      Tbl.fmt_int (Outcome.int c "cycles_per_call");
      Tbl.fmt_int (Outcome.int c "switch_cycles_leg");
      Tbl.fmt_int (Outcome.int c "switch_cycles_per_call");
      Tbl.fmt_int (Outcome.int c "kernel_cycles_per_call");
      yes_no c "kernel_on_path";
      yes_no c "tlb_flush_on_switch";
      yes_no c "shared_address_space";
      n "injected";
      n "recovered";
      n "degraded";
      n "lost";
      n "restarts";
      string_of_int (Exp_chaos.total c "audit");
    ]
  in
  Tbl.make
    ~title:
      (Printf.sprintf
         "Cross-mechanism matrix: VMFUNC vs MPK vs filtered syscall (seed %d)"
         (Outcome.int r "seed"))
    ~header:
      [
        "backend"; "cycles/call"; "switch/leg"; "switch cyc"; "kernel cyc";
        "kernel path"; "tlb flush"; "shared AS"; "injected"; "recovered";
        "degraded"; "lost"; "restarts"; "audit";
      ]
    ~notes:
      [
        "cycles/call: pingpong under TLB pressure (96-page client working \
         set); switch cyc / kernel cyc: Figure-7 attribution of the \
         architectural switch legs vs kernel round trips";
        "every backend faces the identical deterministic fault schedule \
         (crashes, a hang, a revocation); acceptance: lost = 0 and a clean \
         post-storm audit on every row, and mpk strictly under vmfunc on \
         cycles/call";
      ]
    (List.map row (Outcome.list r "cells"))

let outcome budgets r = Outcome.make ~checks:(checks budgets r) (table r) r
let run budgets = outcome budgets (run_matrix ())
