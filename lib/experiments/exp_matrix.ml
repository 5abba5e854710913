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

type cell = {
  x_kind : Backend.kind;
  x_ping : Exp_pingpong.full;
  x_injected : int;
  x_attempts : int;
  x_recovered : int;
  x_degraded : int;
  x_lost : int;
  x_restarts : int;
  x_forced_returns : int;
  x_audit : (string * int) list;  (** post-storm violations per audit pass *)
}

type result = { r_seed : int; r_cells : cell list }

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
  let audit =
    List.map
      (fun (pr : Sky_analysis.Audit.pass_result) ->
        (pr.Sky_analysis.Audit.pr_name,
         List.length pr.Sky_analysis.Audit.pr_violations))
      (Subkernel.audit_passes sb)
  in
  {
    x_kind = kind;
    x_ping = ping;
    x_injected = injected;
    x_attempts = st.Sky_core.Retry.attempts;
    x_recovered = st.Sky_core.Retry.retried_ok;
    x_degraded = st.Sky_core.Retry.degraded;
    x_lost = st.Sky_core.Retry.lost + k_gave_up;
    x_restarts = st.Sky_core.Retry.restarts;
    x_forced_returns = Subkernel.forced_returns sb;
    x_audit = audit;
  }

let run_matrix () =
  let seed = 7 in
  { r_seed = seed; r_cells = List.map (run_cell ~seed) Backend.all }

(* ---- gates ---- *)

let cell_of r kind =
  List.find (fun c -> c.x_kind = kind) r.r_cells

let cycles r kind = (cell_of r kind).x_ping.Exp_pingpong.f_cycles_per_call
let zero_lost r = List.for_all (fun c -> c.x_lost = 0) r.r_cells

let audits_clean r =
  List.for_all (fun c -> List.for_all (fun (_, n) -> n = 0) c.x_audit) r.r_cells

(** The headline claim: the WRPKRU switch beats VMFUNC on the identical
    workload (strictly — both legs are cheaper and nothing else in the
    crossing changed). *)
let mpk_beats_vmfunc r =
  cycles r Backend.Mpk < cycles r Backend.Vmfunc

let recovered_under_storm r =
  List.for_all (fun c -> c.x_injected > 0 && c.x_restarts > 0) r.r_cells

let checks r =
  [
    ("zero_lost", zero_lost r);
    ("audits_clean", audits_clean r);
    ("mpk_beats_vmfunc", mpk_beats_vmfunc r);
    ("recovered_under_storm", recovered_under_storm r);
  ]

let ok r = List.for_all snd (checks r)

(* ---- rendering ---- *)

let audit_total c = List.fold_left (fun a (_, n) -> a + n) 0 c.x_audit

let table r =
  let yes_no b = if b then "yes" else "no" in
  let row c =
    let k = c.x_kind in
    [
      Backend.name k;
      Tbl.fmt_int c.x_ping.Exp_pingpong.f_cycles_per_call;
      Tbl.fmt_int (Backend.switch_cycles k);
      Tbl.fmt_int c.x_ping.Exp_pingpong.f_switch_per_call;
      Tbl.fmt_int c.x_ping.Exp_pingpong.f_kernel_per_call;
      yes_no (Backend.kernel_on_path k);
      yes_no (Backend.tlb_flush_on_switch k);
      yes_no (Backend.shared_address_space k);
      string_of_int c.x_injected;
      string_of_int c.x_recovered;
      string_of_int c.x_degraded;
      string_of_int c.x_lost;
      string_of_int c.x_restarts;
      string_of_int (audit_total c);
    ]
  in
  Tbl.make
    ~title:
      (Printf.sprintf
         "Cross-mechanism matrix: VMFUNC vs MPK vs filtered syscall (seed %d)"
         r.r_seed)
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
    (List.map row r.r_cells)

let to_json r =
  let open Sky_trace.Json in
  let cell c =
    let k = c.x_kind in
    Obj
      [
        ("backend", String (Backend.name k));
        ("title", String (Backend.title k));
        ("cycles_per_call", Int c.x_ping.Exp_pingpong.f_cycles_per_call);
        ("switch_cycles_leg", Int (Backend.switch_cycles k));
        ("switch_cycles_per_call", Int c.x_ping.Exp_pingpong.f_switch_per_call);
        ("kernel_cycles_per_call", Int c.x_ping.Exp_pingpong.f_kernel_per_call);
        ("copy_cycles_per_call", Int c.x_ping.Exp_pingpong.f_copy_per_call);
        ("kernel_on_path", Bool (Backend.kernel_on_path k));
        ("tlb_flush_on_switch", Bool (Backend.tlb_flush_on_switch k));
        ("shared_address_space", Bool (Backend.shared_address_space k));
        ("injected", Int c.x_injected);
        ("attempts", Int c.x_attempts);
        ("recovered", Int c.x_recovered);
        ("degraded", Int c.x_degraded);
        ("lost", Int c.x_lost);
        ("restarts", Int c.x_restarts);
        ("forced_returns", Int c.x_forced_returns);
        ( "audit",
          Obj (List.map (fun (name, n) -> (name, Int n)) c.x_audit) );
      ]
  in
  to_string
    (Obj
       [
         ("seed", Int r.r_seed);
         ("ok", Bool (ok r));
         ("mpk_beats_vmfunc", Bool (mpk_beats_vmfunc r));
         ("cells", List (List.map cell r.r_cells));
       ])

let outcome budgets r =
  Outcome.make
    ~checks:
      (checks r
      @ [
          Budget.ceiling budgets ~section:"pingpong" ~key:"cycles_per_call"
            (cycles r Backend.Vmfunc);
        ])
    (table r) (to_json r)

let run budgets = outcome budgets (run_matrix ())
