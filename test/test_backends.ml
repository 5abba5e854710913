(* Tests for the pluggable isolation backends: the same Subkernel
   behavior (calls, crash -> restart -> rebind, revocation -> slowpath,
   watchdog forced returns) under VMFUNC, MPK and the filtered syscall;
   the matrix's facts against what a call does; each mechanism's own
   security argument (the WRPKRU binary scan, the flow.pkru-escape
   invariant, the entry filter) via injected-mutation tests; the
   per-flavor trampoline checks; the cost ordering; and the qcheck
   cross-backend equivalence sweep. *)

open Sky_sim
open Sky_ukernel
open Sky_core
module Fault = Sky_faults.Fault

let with_faults f = Fun.protect ~finally:Fault.disable f

(* [Subkernel.call] with how it was served: a degraded (slowpath) reply
   is the one that bumps [Subkernel.degraded_calls]. *)
let call_via sb ~core ~client ~server_id ?(timeout = -1) msg =
  let degraded0 = Subkernel.degraded_calls sb in
  match Subkernel.call sb ~core ~client ~server_id ~timeout msg with
  | reply ->
    Ok (reply, if Subkernel.degraded_calls sb > degraded0 then `Slowpath else `Direct)
  | exception Subkernel.Failed e -> Error e

let user_code = Sky_isa.Encode.encode_all [ Sky_isa.Insn.Nop; Sky_isa.Insn.Ret ]

let spawn_with_code k name =
  let p = Kernel.spawn k ~name in
  ignore (Kernel.map_code k p user_code);
  p

let echo ~core:_ msg = msg

let setup ~backend () =
  let machine = Machine.create ~cores:4 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Subkernel.init ~backend k in
  let client = spawn_with_code k "client" in
  let server = spawn_with_code k "server" in
  let sid = Subkernel.register_server sb server echo in
  Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch k ~core:0 client;
  (k, sb, client, server, sid)

let msg8 = Bytes.make 8 'm'

(* Run [test] once per backend, with the backend's name in the failure
   message. *)
let each_backend test () =
  List.iter
    (fun backend ->
      try test ~backend
      with e ->
        Alcotest.failf "[backend %s] %s" (Backend.name backend)
          (Printexc.to_string e))
    Backend.all

(* ------------------------------------------------------------------ *)
(* The same call semantics under every mechanism                       *)
(* ------------------------------------------------------------------ *)

let test_echo_direct ~backend =
  let _, sb, client, _, sid = setup ~backend () in
  Alcotest.(check bool) "backend recorded" true (Subkernel.backend sb = backend);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (reply, `Direct) ->
    Alcotest.(check bool) "echo" true (Bytes.equal reply msg8)
  | _ -> Alcotest.fail "expected direct success");
  Alcotest.(check (list Alcotest.reject)) "audit clean" [] (Subkernel.audit sb)

let test_backend_state ~backend =
  let _, sb, client, server, _ = setup ~backend () in
  match backend with
  | Backend.Vmfunc ->
    Alcotest.(check bool) "no mpk view" true
      (Subkernel.mpk_view sb client = None);
    Alcotest.(check int) "empty entry filter" 0
      (Entry_filter.size (Subkernel.entry_filter sb))
  | Backend.Mpk ->
    (* Client and server hold distinct keys; each resting view writes
       only its own key (plus shared key 0). *)
    let ck, cv = Option.get (Subkernel.mpk_view sb client) in
    let sk, sv = Option.get (Subkernel.mpk_view sb server) in
    Alcotest.(check bool) "distinct keys" true (ck <> sk);
    Alcotest.(check bool) "client view excludes server key" false
      (Sky_mmu.Pkru.allows_write ~pkru:cv ~key:sk);
    Alcotest.(check bool) "server view excludes client key" false
      (Sky_mmu.Pkru.allows_write ~pkru:sv ~key:ck);
    Alcotest.(check bool) "own key writable" true
      (Sky_mmu.Pkru.allows_write ~pkru:cv ~key:ck)
  | Backend.Syscall ->
    (* Binding granted exactly the trampoline entry. *)
    let ef = Subkernel.entry_filter sb in
    Alcotest.(check bool) "grant present" true (Entry_filter.size ef > 0);
    List.iter
      (fun (_, _, entry) ->
        Alcotest.(check int) "blessed entry" Layout.trampoline_va entry)
      (Entry_filter.entries ef)

(* The facts the matrix prints are the ones a call runs on: a warmed
   direct call enters the kernel iff [kernel_on_path] and writes CR3 iff
   [tlb_flush_on_switch], and a process holds an MPK view iff
   [shared_address_space]. *)
let test_facts_match_a_call ~backend =
  let k, sb, client, _, sid = setup ~backend () in
  let pmu = Cpu.pmu (Kernel.cpu k ~core:0) in
  let call () =
    ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg8)
  in
  call ();
  let syscalls = Pmu.read pmu Pmu.Syscall_exec in
  let cr3_writes = Pmu.read pmu Pmu.Cr3_write in
  call ();
  Alcotest.(check bool) "kernel entered iff kernel_on_path"
    (Backend.kernel_on_path backend)
    (Pmu.read pmu Pmu.Syscall_exec > syscalls);
  Alcotest.(check bool) "CR3 written iff tlb_flush_on_switch"
    (Backend.tlb_flush_on_switch backend)
    (Pmu.read pmu Pmu.Cr3_write > cr3_writes);
  Alcotest.(check bool) "MPK view iff shared_address_space"
    (Backend.shared_address_space backend)
    (Subkernel.mpk_view sb client <> None)

let test_crash_restart_rebind ~backend =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup ~backend () in
  Fault.reset ~seed:2 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Crash (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Crashed { server_id }) ->
    Alcotest.(check int) "crashed id" sid server_id
  | _ -> Alcotest.fail "expected Error Crashed");
  Fault.disable ();
  Alcotest.(check (list int)) "dead" [ sid ] (Subkernel.dead_servers sb);
  Subkernel.restart_server sb ~server_id:sid;
  Alcotest.(check (list int)) "alive" [] (Subkernel.dead_servers sb);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (reply, `Direct) ->
    Alcotest.(check bool) "echo after rebind" true (Bytes.equal reply msg8)
  | _ -> Alcotest.fail "expected direct success after restart");
  Alcotest.(check (list Alcotest.reject)) "audit clean" [] (Subkernel.audit sb)

let test_revoke_slowpath_rebind ~backend =
  let _, sb, client, _, sid = setup ~backend () in
  Subkernel.revoke_binding sb ~core:0 client ~server_id:sid ~reason:"test"
    ~into:Subkernel.Orphaned;
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (reply, `Slowpath) ->
    Alcotest.(check bool) "slowpath echo" true (Bytes.equal reply msg8)
  | _ -> Alcotest.fail "expected slowpath degradation");
  (match backend with
  | Backend.Syscall ->
    Alcotest.(check int) "grant removed" 0
      (Entry_filter.size (Subkernel.entry_filter sb))
  | _ -> ());
  Subkernel.rebind sb client ~server_id:sid;
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (reply, `Direct) ->
    Alcotest.(check bool) "direct again" true (Bytes.equal reply msg8)
  | _ -> Alcotest.fail "expected direct success after rebind");
  Alcotest.(check (list Alcotest.reject)) "audit clean" [] (Subkernel.audit sb)

let test_hang_forced_return ~backend =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup ~backend () in
  Fault.reset ~seed:3 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Hang (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid ~timeout:10_000 msg8 with
  | Error (Subkernel.Timeout { server_id; _ }) ->
    Alcotest.(check int) "timed-out id" sid server_id
  | _ -> Alcotest.fail "expected Error Timeout");
  Fault.disable ();
  Alcotest.(check bool) "forced return recorded" true
    (Subkernel.forced_returns sb > 0);
  (* The forced return restored the client: the connection still works. *)
  match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (reply, `Direct) ->
    Alcotest.(check bool) "echo after forced return" true
      (Bytes.equal reply msg8)
  | _ -> Alcotest.fail "expected direct success after forced return"

(* ------------------------------------------------------------------ *)
(* Per-mechanism security arguments, by injected mutation              *)
(* ------------------------------------------------------------------ *)

(* Under MPK, a process shipping a stray WRPKRU must be refused at
   registration (the ERIM binary inspection); the same bytes are fine
   under VMFUNC, whose argument doesn't involve WRPKRU at all. *)
let test_wrpkru_scan_gates_registration () =
  let evil_code =
    Sky_isa.Encode.encode_all
      [ Sky_isa.Insn.Nop; Sky_isa.Insn.Wrpkru; Sky_isa.Insn.Ret ]
  in
  let try_register backend =
    let machine = Machine.create ~cores:2 ~mem_mib:64 () in
    let k = Kernel.create machine in
    let sb = Subkernel.init ~backend k in
    let evil = Kernel.spawn k ~name:"evil" in
    ignore (Kernel.map_code k evil evil_code);
    match Subkernel.register_server sb evil echo with
    | _ -> Ok ()
    | exception Subkernel.Audit_failed vs -> Error vs
  in
  (match try_register Backend.Mpk with
  | Error vs ->
    Alcotest.(check bool) "wrpkru invariant named" true
      (List.exists
         (fun v ->
           v.Sky_analysis.Report.invariant = "gadget.wrpkru-pattern")
         vs)
  | Ok () -> Alcotest.fail "MPK registration must refuse a stray WRPKRU");
  match try_register Backend.Vmfunc with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "VMFUNC registration must not run the WRPKRU scan"

(* The flow.pkru-escape invariant: a healthy MPK machine passes; a
   mutated resting view that writes another domain's key is flagged. *)
let test_pkru_escape_mutation () =
  let _, sb, _, _, _ = setup ~backend:Backend.Mpk () in
  let inp = Subkernel.isoflow_input sb in
  Alcotest.(check (list Alcotest.reject)) "healthy machine clean" []
    (Sky_analysis.Isoflow.check inp);
  let mpk = Option.get inp.Sky_analysis.Isoflow.mpk in
  let victim, thief =
    match mpk.Sky_analysis.Isoflow.m_domains with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "expected two MPK domains"
  in
  let mutated =
    {
      thief with
      Sky_analysis.Isoflow.m_view =
        Sky_mmu.Pkru.allow_only
          [ 0; thief.Sky_analysis.Isoflow.m_key;
            victim.Sky_analysis.Isoflow.m_key ];
    }
  in
  let inp' =
    {
      inp with
      Sky_analysis.Isoflow.mpk =
        Some
          {
            mpk with
            Sky_analysis.Isoflow.m_domains =
              List.map
                (fun d ->
                  if d.Sky_analysis.Isoflow.m_pid
                     = thief.Sky_analysis.Isoflow.m_pid
                  then mutated
                  else d)
                mpk.Sky_analysis.Isoflow.m_domains;
          };
    }
  in
  let vs = Sky_analysis.Isoflow.check inp' in
  Alcotest.(check bool) "escape flagged" true
    (List.exists
       (fun v -> v.Sky_analysis.Report.invariant = "flow.pkru-escape")
       vs)

(* Tampering with the kernel's grant table denies the very next trap:
   the crossing raises rather than silently landing in the server. *)
let test_entry_filter_denial () =
  let _, sb, client, _, sid = setup ~backend:Backend.Syscall () in
  Entry_filter.revoke (Subkernel.entry_filter sb)
    ~pid:client.Proc.pid ~server:sid;
  (match Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg8 with
  | _ -> Alcotest.fail "expected the entry filter to deny the trap"
  | exception Subkernel.Failed (Subkernel.Revoked _) -> ());
  Alcotest.(check bool) "denial counted" true
    (Entry_filter.denials (Subkernel.entry_filter sb) > 0)

(* The same refused trap through [call]: [Revoked], with the binding
   retired, so [Retry.call] rebinds with a fresh grant and gets its
   echo. *)
let test_denied_trap_typed_error () =
  let tamper sb client sid =
    Entry_filter.revoke (Subkernel.entry_filter sb) ~pid:client.Proc.pid
      ~server:sid
  in
  let _, sb, client, _, sid = setup ~backend:Backend.Syscall () in
  tamper sb client sid;
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Revoked { server_id }) ->
    Alcotest.(check int) "revoked id" sid server_id
  | _ -> Alcotest.fail "expected Error Revoked"
  | exception e -> Alcotest.failf "call raised %s" (Printexc.to_string e));
  Alcotest.(check (list (pair int int))) "binding retired" []
    (Subkernel.bindings sb);
  let _, sb, client, _, sid = setup ~backend:Backend.Syscall () in
  tamper sb client sid;
  let stats = Retry.create_stats () in
  (match Retry.call ~stats sb ~core:0 ~client ~server_id:sid ~timeout:(-1) msg8 with
  | reply -> Alcotest.(check bool) "echo" true (Bytes.equal reply msg8)
  | exception e -> Alcotest.failf "Retry.call raised %s" (Printexc.to_string e));
  Alcotest.(check int) "rebound on the retry" 1 stats.Retry.retried_ok;
  Alcotest.(check int) "one fresh grant" 1
    (Entry_filter.size (Subkernel.entry_filter sb));
  Alcotest.(check (list Alcotest.reject)) "audit clean" [] (Subkernel.audit sb)

(* A grant pointing outside every blessed code range fails the
   entryfilter audit pass. *)
let test_unblessed_entry_flagged () =
  let _, sb, client, _, sid = setup ~backend:Backend.Syscall () in
  Alcotest.(check (list Alcotest.reject)) "clean before" [] (Subkernel.audit sb);
  Entry_filter.allow (Subkernel.entry_filter sb)
    ~pid:client.Proc.pid ~server:(sid + 1) ~entry:0xdead000;
  let vs = Subkernel.audit sb in
  Alcotest.(check bool) "unblessed grant flagged" true
    (List.exists
       (fun v ->
         v.Sky_analysis.Report.invariant = "entryfilter.unblessed-entry")
       vs)

(* ------------------------------------------------------------------ *)
(* Per-flavor trampoline checks                                        *)
(* ------------------------------------------------------------------ *)

let test_trampoline_flavors () =
  let check flavor code = Sky_analysis.Tramp_check.check ~flavor code in
  (* Each gate passes its own flavor... *)
  Alcotest.(check (list Alcotest.reject)) "vmfunc gate ok" []
    (check `Vmfunc (Sky_core.Trampoline.code ()));
  Alcotest.(check (list Alcotest.reject)) "mpk gate ok" []
    (check `Mpk (Sky_core.Trampoline.mpk_code ()));
  Alcotest.(check (list Alcotest.reject)) "syscall gate ok" []
    (check `Syscall (Sky_core.Trampoline.syscall_code ()));
  (* ...and is flagged under any other: the wrong mechanism instruction
     in a call gate is exactly what the check exists to catch. *)
  Alcotest.(check bool) "vmfunc gate under mpk flagged" true
    (check `Mpk (Sky_core.Trampoline.code ()) <> []);
  Alcotest.(check bool) "mpk gate under vmfunc flagged" true
    (check `Vmfunc (Sky_core.Trampoline.mpk_code ()) <> []);
  Alcotest.(check bool) "syscall gate under vmfunc flagged" true
    (check `Vmfunc (Sky_core.Trampoline.syscall_code ()) <> [])

(* ------------------------------------------------------------------ *)
(* Registry + cost ordering                                            *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check (list string)) "names" [ "vmfunc"; "mpk"; "syscall" ]
    (List.map Backend.name Backend.all);
  List.iter
    (fun k ->
      match Backend.of_string (Backend.name k) with
      | Some k' -> Alcotest.(check bool) "roundtrip" true (k' = k)
      | None -> Alcotest.fail "of_string failed")
    Backend.all;
  Alcotest.(check bool) "unknown rejected" true (Backend.of_string "ept" = None);
  let leg = Backend.switch_cycles in
  Alcotest.(check bool) "mpk < vmfunc < syscall per leg" true
    (leg Backend.Mpk < leg Backend.Vmfunc
    && leg Backend.Vmfunc < leg Backend.Syscall)

(* The headline measured claim, end to end: the WRPKRU crossing beats
   VMFUNC on the identical pingpong workload, and the filtered syscall
   trails both. *)
let test_cost_ordering_measured () =
  let cycles backend =
    Backend.with_default backend (fun () ->
        (Sky_experiments.Exp_pingpong.measure_full ())
          .Sky_experiments.Exp_pingpong.f_cycles_per_call)
  in
  let v = cycles Backend.Vmfunc in
  let m = cycles Backend.Mpk in
  let s = cycles Backend.Syscall in
  Alcotest.(check bool)
    (Printf.sprintf "mpk %d < vmfunc %d" m v)
    true (m < v);
  Alcotest.(check bool)
    (Printf.sprintf "vmfunc %d < syscall %d" v s)
    true (v < s)

(* ------------------------------------------------------------------ *)
(* qcheck: cross-backend equivalence                                   *)
(* ------------------------------------------------------------------ *)

(* One interleaving step. Calls carry a key/value the server stores, so
   the final KV state witnesses that the same calls reached the same
   server-side effects under every mechanism. *)
type step = Put of int * char | Crash | Restart | Revoke | Rebind

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Put (k, v)) (int_bound 7)
           (map Char.chr (int_range 97 122)));
        (1, return Crash);
        (1, return Restart);
        (1, return Revoke);
        (1, return Rebind);
      ])

let show_step = function
  | Put (k, v) -> Printf.sprintf "Put(%d,%c)" k v
  | Crash -> "Crash"
  | Restart -> "Restart"
  | Revoke -> "Revoke"
  | Rebind -> "Rebind"

let steps_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map show_step l))
    QCheck.Gen.(list_size (int_range 1 25) step_gen)

(* Run one interleaving under one backend; return the per-step outcome
   tags plus the server's final KV state. The KV server stores byte 1
   at index byte 0 of each message and echoes the previous value. *)
let run_steps ~backend steps =
  with_faults @@ fun () ->
  let store = Bytes.make 8 '.' in
  let kv ~core:_ msg =
    let k = Char.code (Bytes.get msg 0) land 7 in
    let prev = Bytes.get store k in
    Bytes.set store k (Bytes.get msg 1);
    Bytes.make 8 prev
  in
  let machine = Machine.create ~cores:4 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Subkernel.init ~backend k in
  let client = spawn_with_code k "client" in
  let server = spawn_with_code k "kv" in
  let sid = Subkernel.register_server sb server kv in
  Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch k ~core:0 client;
  let tag_of = function
    | Ok (reply, `Direct) -> Printf.sprintf "direct:%c" (Bytes.get reply 0)
    | Ok (reply, `Slowpath) -> Printf.sprintf "slow:%c" (Bytes.get reply 0)
    | Error (Subkernel.Timeout _) -> "timeout"
    | Error (Subkernel.Crashed _) -> "crashed"
    | Error (Subkernel.Revoked _) -> "revoked"
    | Error (Subkernel.Too_large _) -> "too-large"
    | Error (Subkernel.Denied _) -> "denied"
  in
  let outcome step =
    match step with
    | Put (key, v) ->
      let msg = Bytes.make 8 v in
      Bytes.set msg 0 (Char.chr key);
      Bytes.set msg 1 v;
      tag_of (call_via sb ~core:0 ~client ~server_id:sid msg)
    | Crash ->
      Fault.reset ~seed:9 ();
      Fault.arm ~site:"server.kv" ~kind:Fault.Crash (Fault.At_hit 1);
      let t = tag_of (call_via sb ~core:0 ~client ~server_id:sid msg8) in
      Fault.disable ();
      t
    | Restart ->
      Subkernel.restart_server sb ~server_id:sid;
      "restarted"
    | Revoke ->
      if Subkernel.bindings sb <> [] then
        Subkernel.revoke_binding sb ~core:0 client ~server_id:sid
          ~reason:"sweep" ~into:Subkernel.Orphaned;
      "revoked-binding"
    | Rebind ->
      (if Subkernel.dead_servers sb = [] && Subkernel.bindings sb = [] then
         Subkernel.rebind sb client ~server_id:sid);
      "rebound"
  in
  let tags = List.map outcome steps in
  (tags, Bytes.to_string store, Subkernel.audit sb = [])

let equivalence_sweep =
  QCheck.Test.make
    ~name:
      "random call/crash/revoke interleavings: identical outcomes and KV \
       state on every backend"
    ~count:25 steps_arb
    (fun steps ->
      let reference = run_steps ~backend:Backend.Vmfunc steps in
      List.for_all
        (fun backend -> run_steps ~backend steps = reference)
        [ Backend.Mpk; Backend.Syscall ]
      &&
      let _, _, clean = reference in
      clean)

(* ------------------------------------------------------------------ *)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "backends"
    [
      ( "semantics",
        [
          t "echo direct on every backend" (each_backend test_echo_direct);
          t "per-backend machine state" (each_backend test_backend_state);
          t "matrix facts match a call" (each_backend test_facts_match_a_call);
          t "crash -> restart -> rebind" (each_backend test_crash_restart_rebind);
          t "revoke -> slowpath -> rebind"
            (each_backend test_revoke_slowpath_rebind);
          t "hang -> forced return" (each_backend test_hang_forced_return);
        ] );
      ( "security",
        [
          t "wrpkru scan gates registration (mpk only)"
            test_wrpkru_scan_gates_registration;
          t "flow.pkru-escape mutation" test_pkru_escape_mutation;
          t "entry filter denies tampered grant" test_entry_filter_denial;
          t "denied trap is a typed error; retry rebinds"
            test_denied_trap_typed_error;
          t "unblessed entry grant flagged" test_unblessed_entry_flagged;
          t "trampoline per-flavor checks" test_trampoline_flavors;
        ] );
      ( "cost",
        [
          t "registry + static ordering" test_registry;
          t "measured ordering: mpk < vmfunc < syscall"
            test_cost_ordering_measured;
        ] );
      ("equivalence", qc [ equivalence_sweep ]);
    ]
