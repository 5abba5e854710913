(* Tests for the deterministic fault-plan engine (Sky_faults) and the
   §7 crash-safe call recovery built on it: typed call errors, watchdog
   forced returns with register restore, revocation + rebinding,
   slowpath degradation, the security-event ring, trace integration,
   and the qcheck crash sweeps. *)

open Sky_sim
open Sky_ukernel
open Sky_core
module Fault = Sky_faults.Fault

(* Every test leaves the global engine disabled, whatever happens. *)
let with_faults f = Fun.protect ~finally:Fault.disable f

(* [Subkernel.call] with how it was served: a degraded (slowpath) reply
   is the one that bumps [Subkernel.degraded_calls]. *)
let call_via sb ~core ~client ~server_id ?(timeout = -1) msg =
  let degraded0 = Subkernel.degraded_calls sb in
  match Subkernel.call sb ~core ~client ~server_id ~timeout msg with
  | reply ->
    Ok (reply, if Subkernel.degraded_calls sb > degraded0 then `Slowpath else `Direct)
  | exception Subkernel.Failed e -> Error e

(* ------------------------------------------------------------------ *)
(* Engine semantics (no machine: hand-cranked clock)                   *)
(* ------------------------------------------------------------------ *)

let test_triggers () =
  with_faults @@ fun () ->
  Fault.reset ~seed:1 ();
  Fault.set_clock (fun _ -> 0);
  Fault.arm ~site:"a" ~kind:Fault.Crash (Fault.At_hit 3);
  Alcotest.(check bool) "hit 1" true (Fault.check ~core:0 "a" = None);
  Alcotest.(check bool) "hit 2" true (Fault.check ~core:0 "a" = None);
  Alcotest.(check bool) "hit 3 fires" true
    (Fault.check ~core:0 "a" = Some Fault.Crash);
  Alcotest.(check bool) "budget spent" true (Fault.check ~core:0 "a" = None);
  Fault.arm ~budget:2 ~site:"b" ~kind:Fault.Hang (Fault.Every 2);
  let fires =
    List.init 8 (fun _ -> Fault.check ~core:0 "b" <> None)
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check int) "every-2 with budget 2" 2 fires

let test_at_cycle () =
  with_faults @@ fun () ->
  let t = ref 0 in
  Fault.reset ~seed:1 ();
  Fault.set_clock (fun _ -> !t);
  Fault.arm ~site:"c" ~kind:Fault.Drop (Fault.At_cycle 100);
  t := 50;
  Alcotest.(check bool) "before cycle" true (Fault.check ~core:0 "c" = None);
  t := 120;
  Alcotest.(check bool) "past cycle" true
    (Fault.check ~core:0 "c" = Some Fault.Drop);
  Alcotest.(check (list (pair string int))) "fired log cycle" [ ("c", 1) ]
    (Fault.fired_counts ());
  match Fault.fired () with
  | [ ("c", Fault.Drop, 120) ] -> ()
  | _ -> Alcotest.fail "fired log should carry the firing cycle"

let test_scope_gating () =
  with_faults @@ fun () ->
  Fault.reset ~seed:1 ();
  Fault.set_clock (fun _ -> 0);
  Fault.arm ~site:"s" ~kind:Fault.Crash (Fault.At_hit 1);
  (* Out-of-scope scoped checks neither fire nor consume hits. *)
  Alcotest.(check bool) "out of scope" true
    (Fault.check ~scoped:true ~core:0 "s" = None);
  Alcotest.(check bool) "still armed" true
    (Fault.with_scope (fun () -> Fault.check ~scoped:true ~core:0 "s")
    = Some Fault.Crash);
  Alcotest.(check bool) "scope closed again" false (Fault.in_scope ())

let test_deterministic_schedule () =
  with_faults @@ fun () ->
  let run ~seed ~interleave =
    Fault.reset ~seed ();
    Fault.set_clock (fun _ -> 0);
    Fault.arm ~budget:1000 ~site:"p" ~kind:Fault.Crash (Fault.Prob 0.2);
    Fault.arm ~budget:1000 ~site:"q" ~kind:Fault.Drop (Fault.Prob 0.2);
    (* The q checks interleave differently between runs; p's per-arm
       stream must not care. *)
    let hits = ref [] in
    for i = 1 to 200 do
      if interleave && i mod 3 = 0 then ignore (Fault.check ~core:0 "q");
      if Fault.check ~core:0 "p" <> None then hits := i :: !hits
    done;
    !hits
  in
  let a = run ~seed:42 ~interleave:false in
  let b = run ~seed:42 ~interleave:true in
  let c = run ~seed:43 ~interleave:false in
  Alcotest.(check (list int)) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Recovery over a real Subkernel                                      *)
(* ------------------------------------------------------------------ *)

let user_code = Sky_isa.Encode.encode_all [ Sky_isa.Insn.Nop; Sky_isa.Insn.Ret ]

let spawn_with_code k name =
  let p = Kernel.spawn k ~name in
  ignore (Kernel.map_code k p user_code);
  p

let echo ~core:_ msg = msg

let setup () =
  let machine = Machine.create ~cores:4 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Subkernel.init k in
  let client = spawn_with_code k "client" in
  let server = spawn_with_code k "server" in
  let sid = Subkernel.register_server sb server echo in
  Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch k ~core:0 client;
  (k, sb, client, server, sid)

let msg8 = Bytes.make 8 'm'

(* ---- oversized messages (hostile input) ----

   Each connection owns one 8 KiB window of the shared buffer area,
   windows laid out back to back. A message one byte over must end in
   the typed [Too_large] error before any byte moves: with eight
   connections the parent of this change let a long request run on
   through the neighbouring windows and return [Ok]; with one it
   escaped as a raw [Page_fault]. *)

let window = Subkernel.buffer_size

(* A client bound to a server that echoes, or answers [!reply_len]
   bytes when that is set. *)
let oversize_rig ~conns =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Subkernel.init k in
  let client = spawn_with_code k "client" in
  let server = spawn_with_code k "server" in
  let reply_len = ref (-1) in
  let sid =
    Subkernel.register_server sb server ~connection_count:conns (fun ~core:_ msg ->
        if !reply_len < 0 then msg else Bytes.make !reply_len 'r')
  in
  Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch k ~core:0 client;
  (k, sb, client, sid, reply_len)

(* Connection [i]'s window, as the client sees it (the first binding's
   windows start the shared buffer area). *)
let window_bytes k i =
  Sky_mmu.Translate.read_bytes (Kernel.vcpu k ~core:0) (Kernel.mem k)
    ~va:(Layout.skybridge_buffer_va + (i * window)) ~len:window

let expect_too_large what len = function
  | Error (Subkernel.Too_large { len = l; _ }) ->
    Alcotest.(check int) (what ^ ": reported length") len l
  | Error _ -> Alcotest.failf "%s: expected Too_large, got another error" what
  | Ok _ -> Alcotest.failf "%s: expected Too_large, got Ok" what

let test_oversized_request () =
  List.iter
    (fun conns ->
      let what = Printf.sprintf "%d connection(s)" conns in
      let k, sb, client, sid, _ = oversize_rig ~conns in
      let full = Bytes.make window 'f' in
      (match call_via sb ~core:0 ~client ~server_id:sid full with
      | Ok (reply, _) -> Alcotest.(check bool) (what ^ ": 8 KiB echoes") true (Bytes.equal reply full)
      | _ -> Alcotest.failf "%s: an 8,192-byte request must pass" what);
      let neighbour = if conns > 1 then Some (window_bytes k 1) else None in
      let cpu = Kernel.cpu k ~core:0 in
      let cycles0 = Cpu.cycles cpu and calls0 = Subkernel.calls sb in
      expect_too_large what (window + 1)
        (call_via sb ~core:0 ~client ~server_id:sid (Bytes.make (window + 1) 'x'));
      Alcotest.(check int) (what ^ ": nothing charged") cycles0 (Cpu.cycles cpu);
      Alcotest.(check int) (what ^ ": no call made") calls0 (Subkernel.calls sb);
      (match neighbour with
      | Some before ->
        Alcotest.(check bool) (what ^ ": neighbouring window unchanged") true
          (Bytes.equal before (window_bytes k 1))
      | None -> ());
      (match
         Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid
           (Bytes.make (window + 1) 'x')
       with
      | _ -> Alcotest.failf "%s: direct_server_call must refuse" what
      | exception Subkernel.Failed (Subkernel.Too_large { len; server_id }) ->
        Alcotest.(check (pair int int)) (what ^ ": exception") (window + 1, sid)
          (len, server_id));
      (* Not worth a retry: one attempt, then the typed error. *)
      let stats = Retry.create_stats () in
      (match
         Retry.call ~stats sb ~core:0 ~client ~server_id:sid ~timeout:(-1)
           (Bytes.make (window + 1) 'x')
       with
      | _ -> Alcotest.failf "%s: Retry.call must give up" what
      | exception Subkernel.Failed (Subkernel.Too_large _) -> ());
      Alcotest.(check int) (what ^ ": one attempt") 1 stats.Retry.attempts;
      Alcotest.(check (list Alcotest.reject)) (what ^ ": audit clean") [] (Subkernel.audit sb))
    [ 1; 8 ]

let test_oversized_reply () =
  List.iter
    (fun conns ->
      let what = Printf.sprintf "%d connection(s)" conns in
      let k, sb, client, sid, reply_len = oversize_rig ~conns in
      reply_len := window;
      (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
      | Ok (reply, _) -> Alcotest.(check int) (what ^ ": 8 KiB reply") window (Bytes.length reply)
      | _ -> Alcotest.failf "%s: an 8,192-byte reply must pass" what);
      let neighbour = if conns > 1 then Some (window_bytes k 1) else None in
      let forced0 = Subkernel.forced_returns sb in
      reply_len := window + 1;
      expect_too_large what (window + 1)
        (call_via sb ~core:0 ~client ~server_id:sid (Bytes.make 48 'q'));
      Alcotest.(check int) (what ^ ": forced return") (forced0 + 1)
        (Subkernel.forced_returns sb);
      Alcotest.(check int) (what ^ ": client back in its own domain") client.Proc.pid
        (Subkernel.current_identity sb ~core:0);
      Alcotest.(check bool) (what ^ ": no call in flight") true
        (Subkernel.call_state sb ~core:0 = None);
      (match neighbour with
      | Some before ->
        Alcotest.(check bool) (what ^ ": neighbouring window unchanged") true
          (Bytes.equal before (window_bytes k 1))
      | None -> ());
      Alcotest.(check (list Alcotest.reject)) (what ^ ": audit clean") [] (Subkernel.audit sb);
      (match
         Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg8
       with
      | _ -> Alcotest.failf "%s: direct_server_call must refuse the reply" what
      | exception Subkernel.Failed (Subkernel.Too_large { len; _ }) ->
        Alcotest.(check int) (what ^ ": exception length") (window + 1) len);
      reply_len := -1;
      match call_via sb ~core:0 ~client ~server_id:sid msg8 with
      | Ok (reply, _) -> Alcotest.(check bool) (what ^ ": next call echoes") true (Bytes.equal reply msg8)
      | Error _ -> Alcotest.failf "%s: the connection must stay usable" what)
    [ 1; 8 ]

let test_crash_typed_error_and_restart () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  Fault.reset ~seed:2 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Crash (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Crashed { server_id }) ->
    Alcotest.(check int) "crashed server id" sid server_id
  | _ -> Alcotest.fail "expected Error Crashed");
  Alcotest.(check (list int)) "server marked dead" [ sid ]
    (Subkernel.dead_servers sb);
  (* A call to a dead server fails fast with the typed error. *)
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Crashed _) -> ()
  | _ -> Alcotest.fail "dead server must refuse calls");
  Fault.disable ();
  Subkernel.restart_server sb ~server_id:sid;
  Alcotest.(check (list int)) "alive again" [] (Subkernel.dead_servers sb);
  (* The restart rebound the orphaned connection: calls flow again. *)
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (reply, `Direct) ->
    Alcotest.(check bool) "echo" true (Bytes.equal reply msg8)
  | _ -> Alcotest.fail "expected direct success after restart");
  Alcotest.(check (list Alcotest.reject)) "audit clean" [] (Subkernel.audit sb)

let test_drop_is_timeout () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  Fault.reset ~seed:2 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Drop (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Timeout _) -> ()
  | _ -> Alcotest.fail "a dropped reply surfaces as a timeout");
  Fault.disable ();
  match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (_, `Direct) -> ()
  | _ -> Alcotest.fail "lost reply must not poison the binding"

let test_hang_hits_watchdog () =
  with_faults @@ fun () ->
  let k, sb, client, _, sid = setup () in
  let cpu = Kernel.cpu k ~core:0 in
  Fault.reset ~seed:2 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Hang (Fault.At_hit 1);
  let before = Cpu.cycles cpu in
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Timeout { elapsed; _ }) ->
    Alcotest.(check bool) "elapsed past the default watchdog" true
      (elapsed > 1_000_000)
  | _ -> Alcotest.fail "expected watchdog timeout");
  Alcotest.(check bool) "hang cycles were really burned" true
    (Cpu.cycles cpu - before > 1_000_000);
  Alcotest.(check bool) "forced return counted" true
    (Subkernel.forced_returns sb > 0)

let test_revoke_degrades_to_slowpath () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  Fault.reset ~seed:2 ();
  Fault.arm ~site:"subkernel.call" ~kind:Fault.Revoke (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (reply, `Slowpath) ->
    Alcotest.(check bool) "echo over slowpath" true (Bytes.equal reply msg8)
  | _ -> Alcotest.fail "revoked binding must degrade, not fail");
  Fault.disable ();
  (* Degradation is sticky until the client rebinds. *)
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (_, `Slowpath) -> ()
  | _ -> Alcotest.fail "still degraded before rebind");
  Alcotest.(check bool) "degraded calls counted" true
    (Subkernel.degraded_calls sb >= 2);
  Subkernel.rebind sb client ~server_id:sid;
  match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Ok (_, `Direct) -> ()
  | _ -> Alcotest.fail "rebind must restore the direct path"

let test_ept_fault_revokes_binding () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  (* Large message: the in-server copy walks guest page tables inside
     the fault scope, where the armed EPT fault fires. *)
  let big = Bytes.make 4096 'x' in
  Fault.reset ~seed:2 ();
  Fault.arm ~site:"mmu.walk" ~kind:Fault.Ept_fault (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid big with
  | Error (Subkernel.Revoked { server_id }) ->
    Alcotest.(check int) "revoked server id" sid server_id
  | Ok _ -> Alcotest.fail "expected the EPT fault to abort the call"
  | Error _ -> Alcotest.fail "expected Error Revoked");
  Fault.disable ();
  (* Revoked -> slowpath until rebound, then direct again. *)
  (match call_via sb ~core:0 ~client ~server_id:sid big with
  | Ok (_, `Slowpath) -> ()
  | _ -> Alcotest.fail "revoked binding degrades to slowpath");
  Subkernel.rebind sb client ~server_id:sid;
  (match call_via sb ~core:0 ~client ~server_id:sid big with
  | Ok (reply, `Direct) ->
    Alcotest.(check bool) "payload intact" true (Bytes.equal reply big)
  | _ -> Alcotest.fail "rebind must restore the direct path");
  Alcotest.(check (list Alcotest.reject)) "audit clean" [] (Subkernel.audit sb)

(* Satellite: §7 forced abort must restore the client's callee-saved
   registers from the trampoline save area. *)
let callee_saved = Sky_isa.Reg.[ Rbx; Rbp; Rsp; R12; R13; R14; R15 ]

let test_forced_abort_restores_registers () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  let regs = Subkernel.thread_regs sb client in
  let before = Array.copy regs in
  Fault.reset ~seed:5 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Crash (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Crashed _) -> ()
  | _ -> Alcotest.fail "expected Error Crashed");
  Fault.disable ();
  List.iter
    (fun r ->
      let i = Sky_isa.Reg.encoding r in
      Alcotest.(check int64)
        (Printf.sprintf "%s restored" (Sky_isa.Reg.name r))
        before.(i) regs.(i))
    callee_saved;
  Alcotest.(check (list Alcotest.reject)) "trampoline.callee-saved holds" []
    (Subkernel.audit sb);
  (* Mutation check: an unrestored clobber must trip the audit rule. *)
  let saved = regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rbx) in
  regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rbx) <- 0xDEAD0000L;
  Alcotest.(check bool) "clobber detected" true
    (Sky_analysis.Report.has ~invariant:"trampoline.callee-saved"
       (Subkernel.audit sb));
  regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rbx) <- saved

(* The backstop for a handler fault: an exception the Subkernel has no
   name for (here [Invalid_argument], raised on one chosen message) is a
   faulting server. The call ends in [Crashed] with the client forced
   back home, its callee-saved registers restored and the server
   reaped, on the direct path and on the slowpath, under every backend;
   [Retry] restarts the server and the next call is served. The
   exception escaped the call after the forced return. *)
let test_handler_fault_is_a_crash () =
  let boom = Bytes.of_string "boom" in
  List.iter
    (fun backend ->
      let k = Kernel.create (Machine.create ~cores:4 ~mem_mib:64 ()) in
      let sb = Subkernel.init ~backend k in
      let client = spawn_with_code k "client" in
      let server = spawn_with_code k "server" in
      let sid =
        Subkernel.register_server sb server (fun ~core:_ msg ->
            if Bytes.equal msg boom then invalid_arg "handler bug" else msg)
      in
      Subkernel.register_client_to_server sb client ~server_id:sid;
      Kernel.context_switch k ~core:0 client;
      let regs = Subkernel.thread_regs sb client in
      let before = Array.copy regs in
      let crash path ~forced =
        let what = Printf.sprintf "%s, %s" (Backend.name backend) path in
        let forced0 = Subkernel.forced_returns sb in
        (match call_via sb ~core:0 ~client ~server_id:sid boom with
        | Error (Subkernel.Crashed { server_id }) ->
          Alcotest.(check int) (what ^ ": crashed server") sid server_id
        | _ -> Alcotest.failf "%s: expected Crashed" what);
        Alcotest.(check int) (what ^ ": forced returns") (forced0 + forced)
          (Subkernel.forced_returns sb);
        Alcotest.(check (list int)) (what ^ ": reaped") [ sid ] (Subkernel.dead_servers sb);
        Alcotest.(check int) (what ^ ": client back home") client.Proc.pid
          (Subkernel.current_identity sb ~core:0);
        List.iter
          (fun r ->
            let i = Sky_isa.Reg.encoding r in
            Alcotest.(check int64)
              (Printf.sprintf "%s: %s restored" what (Sky_isa.Reg.name r))
              before.(i) regs.(i))
          callee_saved;
        let stats = Retry.create_stats () in
        Alcotest.(check bool) (what ^ ": served after the restart") true
          (Bytes.equal msg8 (Retry.call ~stats sb ~core:0 ~client ~server_id:sid ~timeout:(-1) msg8));
        Alcotest.(check int) (what ^ ": Retry restarted it") 1 stats.Retry.restarts;
        Alcotest.(check (list Alcotest.reject)) (what ^ ": audit clean") [] (Subkernel.audit sb)
      in
      crash "direct" ~forced:1;
      Subkernel.revoke_binding sb ~core:0 client ~server_id:sid ~reason:"slowpath probe"
        ~into:Subkernel.Orphaned;
      crash "slowpath" ~forced:0)
    Backend.all

let test_timeout_restores_registers () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  let regs = Subkernel.thread_regs sb client in
  let before = Array.copy regs in
  Fault.reset ~seed:5 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Hang (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Timeout _) -> ()
  | _ -> Alcotest.fail "expected watchdog timeout");
  Fault.disable ();
  List.iter
    (fun r ->
      let i = Sky_isa.Reg.encoding r in
      Alcotest.(check int64)
        (Printf.sprintf "%s restored after timeout" (Sky_isa.Reg.name r))
        before.(i) regs.(i))
    callee_saved;
  Alcotest.(check (list Alcotest.reject)) "audit clean" [] (Subkernel.audit sb)

(* Satellite: the security-event ring is bounded and counts drops. *)
let test_security_ring_bounded () =
  let _, sb, client, _, sid = setup () in
  for _ = 1 to Subkernel.security_ring_capacity + 50 do
    try
      ignore
        (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid
           ~attack:`Fake_server_key msg8)
    with Subkernel.Bad_server_key _ -> ()
  done;
  Alcotest.(check int) "ring capped"
    Subkernel.security_ring_capacity
    (List.length (Subkernel.security_events sb));
  Alcotest.(check bool) "drops counted" true
    (Subkernel.security_events_dropped sb >= 50)

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let test_retry_recovers_crash () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  Fault.reset ~seed:3 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Crash (Fault.At_hit 1);
  let stats = Retry.create_stats () in
  let reply = Retry.call ~stats sb ~core:0 ~client ~server_id:sid ~timeout:(-1) msg8 in
  Fault.disable ();
  Alcotest.(check bool) "echo after recovery" true (Bytes.equal reply msg8);
  Alcotest.(check int) "one retry" 1 stats.Retry.retried_ok;
  Alcotest.(check int) "one restart" 1 stats.Retry.restarts;
  Alcotest.(check int) "nothing lost" 0 stats.Retry.lost

let test_retry_gives_up () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  Fault.reset ~seed:3 ();
  (* Crash on every dispatch: the budget outlasts the retry allowance. *)
  Fault.arm ~budget:100 ~site:"server.server" ~kind:Fault.Crash (Fault.Every 1);
  let stats = Retry.create_stats () in
  (match Retry.call ~max_attempts:3 ~stats sb ~core:0 ~client ~server_id:sid ~timeout:(-1) msg8 with
  | exception Subkernel.Failed (Subkernel.Crashed _) -> ()
  | _ -> Alcotest.fail "expected Failed Crashed");
  Fault.disable ();
  Alcotest.(check int) "loss counted" 1 stats.Retry.lost;
  Alcotest.(check int) "all attempts burned" 3 stats.Retry.attempts

(* ------------------------------------------------------------------ *)
(* Trace integration                                                   *)
(* ------------------------------------------------------------------ *)

let test_fault_and_recovery_traced () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  Sky_trace.Trace.clear ();
  Sky_trace.Trace.enable ();
  Fault.reset ~seed:4 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Crash (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Crashed _) -> ()
  | _ -> Alcotest.fail "expected Error Crashed");
  Fault.disable ();
  Subkernel.restart_server sb ~server_id:sid;
  Sky_trace.Trace.disable ();
  let events = Sky_trace.Trace.events () in
  let have cat name =
    List.exists
      (fun e -> e.Sky_trace.Trace.cat = cat && e.Sky_trace.Trace.name = name)
      events
  in
  Alcotest.(check bool) "fault instant" true (have "fault" "fault.server.server");
  Alcotest.(check bool) "reap instant" true (have "recovery" "recovery.reap");
  Alcotest.(check bool) "forced return span" true
    (have "recovery" "recovery.forced_return");
  Alcotest.(check bool) "restart instant" true
    (have "recovery" "recovery.restart")

let test_fault_trace_noop_when_disabled () =
  with_faults @@ fun () ->
  let _, sb, client, _, sid = setup () in
  Sky_trace.Trace.clear ();
  (* Tracing off: a firing fault must emit nothing. *)
  Fault.reset ~seed:4 ();
  Fault.arm ~site:"server.server" ~kind:Fault.Crash (Fault.At_hit 1);
  (match call_via sb ~core:0 ~client ~server_id:sid msg8 with
  | Error (Subkernel.Crashed _) -> ()
  | _ -> Alcotest.fail "expected Error Crashed");
  Fault.disable ();
  Alcotest.(check int) "no trace events" 0
    (List.length (Sky_trace.Trace.events ()))

let test_hooks_cycle_neutral () =
  with_faults @@ fun () ->
  let k, sb, client, _, sid = setup () in
  let cpu = Kernel.cpu k ~core:0 in
  let cost () =
    let c0 = Cpu.cycles cpu in
    ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg8);
    Cpu.cycles cpu - c0
  in
  ignore (cost ()) (* warm *);
  let off = cost () in
  Fault.reset ~seed:9 () (* enabled, nothing armed *);
  let on = cost () in
  Fault.arm ~site:"server.server" ~kind:Fault.Crash (Fault.At_hit 10_000);
  let armed = cost () in
  Fault.disable ();
  Alcotest.(check int) "enabled engine costs no cycles" off on;
  Alcotest.(check int) "non-firing arm costs no cycles" off armed

(* ------------------------------------------------------------------ *)
(* Determinism end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let storm_run seed =
  let _, sb, client, _, sid = setup () in
  Fault.reset ~seed ();
  Fault.arm ~budget:3 ~site:"server.server" ~kind:Fault.Crash (Fault.Every 7);
  Fault.arm ~budget:2 ~site:"sim.cycle" ~kind:Fault.Crash (Fault.Prob 1e-4);
  let stats = Retry.create_stats () in
  for _ = 1 to 40 do
    ignore (Retry.call ~stats sb ~core:0 ~client ~server_id:sid ~timeout:(-1) msg8)
  done;
  Fault.disable ();
  (Fault.fired (), stats.Retry.attempts, stats.Retry.restarts)

let test_storm_deterministic () =
  with_faults @@ fun () ->
  let f1, a1, r1 = storm_run 11 in
  let f2, a2, r2 = storm_run 11 in
  Alcotest.(check bool) "identical fired logs" true (f1 = f2);
  Alcotest.(check int) "identical attempts" a1 a2;
  Alcotest.(check int) "identical restarts" r1 r2;
  Alcotest.(check bool) "storm actually fired" true (List.length f1 > 0)

(* ------------------------------------------------------------------ *)
(* qcheck crash sweeps                                                 *)
(* ------------------------------------------------------------------ *)

let crash_sweep =
  QCheck.Test.make
    ~name:"crash at a random point -> typed error, clean audit, fresh binding works"
    ~count:15
    QCheck.(pair small_nat (int_bound 2))
    (fun (seed, kidx) ->
      with_faults @@ fun () ->
      let k, sb, client, _, sid = setup () in
      let cpu = Kernel.cpu k ~core:0 in
      let big = Bytes.make 2048 'y' in
      ignore (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid big);
      Fault.reset ~seed ();
      let kind =
        match kidx with 0 -> Fault.Crash | 1 -> Fault.Drop | _ -> Fault.Ept_fault
      in
      (* A random in-call cycle: scoped, so it can only land while the
         client executes inside the server's space. *)
      Fault.arm ~site:"sim.cycle" ~kind
        (Fault.At_cycle (Cpu.cycles cpu + 1 + (seed * 131 mod 997)));
      let outcome = call_via sb ~core:0 ~client ~server_id:sid big in
      Fault.disable ();
      (* Whatever happened, the machine must audit clean... *)
      if Subkernel.audit sb <> [] then false
      else begin
        (* ...and recovery must leave the connection usable. *)
        (match outcome with
        | Ok _ -> ()
        | Error (Subkernel.Crashed { server_id }) ->
          Subkernel.restart_server sb ~server_id
        | Error (Subkernel.Revoked { server_id }) ->
          Subkernel.rebind sb client ~server_id
        | Error (Subkernel.Timeout _ | Subkernel.Too_large _ | Subkernel.Denied _) -> ());
        let reply =
          Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid big
        in
        Bytes.equal reply big && Subkernel.audit sb = []
      end)

let fs_crash_sweep =
  QCheck.Test.make
    ~name:"fs crash sweep: restart + remount leave a consistent image"
    ~count:5 QCheck.small_nat
    (fun seed ->
      with_faults @@ fun () ->
      let stats = Retry.create_stats () in
      let stack, sb =
        Sky_experiments.Stack.build_resilient ~cores:2 ~disk_blocks:2048 stats
      in
      let db = stack.Sky_experiments.Stack.db in
      Fault.reset ~seed ();
      Fault.arm ~budget:1 ~site:"server.xv6fs" ~kind:Fault.Crash
        (Fault.At_hit (1 + (seed mod 13)));
      Fault.arm ~budget:1 ~site:"sim.cycle" ~kind:Fault.Crash
        (Fault.Prob 5e-5);
      let v = Bytes.make 64 'z' in
      for key = 0 to 29 do
        Sky_sqldb.Db.insert db ~core:0 ~key ~value:v
      done;
      Fault.disable ();
      stats.Retry.lost = 0
      && Sky_xv6fs.Fsck.check (Sky_experiments.Stack.fs stack) ~core:0 = []
      && Subkernel.audit sb = [])

(* A server that keeps crashing through the SQLite stack's remount: the
   remount's three restarts run out while the disk is still crashing.
   The op must end in [Subkernel.Failed] (never another exception),
   no server is left dead, and once the storm stops
   the FS is fsck-clean and the next op succeeds — whichever comes
   first, an fsck or the next request. Budgets 3 and 4 recover inside
   the remount; 5 and 8 exhaust it; the FS server crashing 6 times in a
   row exhausts the retry itself. *)
let test_remount_exhaustion () =
  List.iter
    (fun (site, budget, gives_up, fsck_first) ->
      with_faults @@ fun () ->
      let stats = Retry.create_stats () in
      let stack, sb =
        Sky_experiments.Stack.build_resilient ~cores:2 ~disk_blocks:2048 stats
      in
      let db = stack.Sky_experiments.Stack.db in
      let v = Bytes.make 100 'r' in
      Sky_sqldb.Db.insert db ~core:0 ~key:1 ~value:v;
      Fault.reset ~seed:1 ();
      Fault.arm ~budget ~site ~kind:Fault.Crash (Fault.Every 1);
      let gave_up =
        match Sky_sqldb.Db.insert db ~core:0 ~key:2 ~value:v with
        | () -> false
        | exception Subkernel.Failed _ -> true
      in
      Fault.disable ();
      let name = Printf.sprintf "%s x%d" site budget in
      Alcotest.(check bool) (name ^ ": gave up") gives_up gave_up;
      let fsck () =
        Alcotest.(check int)
          (name ^ ": fsck")
          0
          (List.length (Sky_xv6fs.Fsck.check (Sky_experiments.Stack.fs stack) ~core:0))
      in
      if fsck_first then fsck ();
      Sky_sqldb.Db.insert db ~core:0 ~key:3 ~value:v;
      Alcotest.(check bool)
        (name ^ ": ops after the storm")
        true
        (Sky_sqldb.Db.query db ~core:0 ~key:1 = Some v
        && Sky_sqldb.Db.query db ~core:0 ~key:3 = Some v);
      fsck ();
      Alcotest.(check int) (name ^ ": audit") 0 (List.length (Subkernel.audit sb)))
    [
      ("server.blockdev", 3, false, true);
      ("server.blockdev", 4, false, false);
      ("server.blockdev", 5, true, false);
      ("server.blockdev", 8, true, true);
      ("server.xv6fs", 6, true, true);
    ]

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ( "engine",
        [
          Alcotest.test_case "triggers: at-hit / every / budget" `Quick
            test_triggers;
          Alcotest.test_case "at-cycle uses the installed clock" `Quick
            test_at_cycle;
          Alcotest.test_case "scoped sites only fire in scope" `Quick
            test_scope_gating;
          Alcotest.test_case "per-arm streams are interleaving-independent"
            `Quick test_deterministic_schedule;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "oversized request -> typed error" `Quick
            test_oversized_request;
          Alcotest.test_case "oversized reply -> forced return" `Quick
            test_oversized_reply;
          Alcotest.test_case "crash -> typed error -> restart -> recovered"
            `Quick test_crash_typed_error_and_restart;
          Alcotest.test_case "dropped reply -> timeout" `Quick
            test_drop_is_timeout;
          Alcotest.test_case "hang -> watchdog forced return" `Quick
            test_hang_hits_watchdog;
          Alcotest.test_case "revocation degrades to slowpath" `Quick
            test_revoke_degrades_to_slowpath;
          Alcotest.test_case "EPT fault revokes the binding" `Quick
            test_ept_fault_revokes_binding;
          Alcotest.test_case "forced abort restores callee-saved regs" `Quick
            test_forced_abort_restores_registers;
          Alcotest.test_case "handler fault is a crash" `Quick test_handler_fault_is_a_crash;
          Alcotest.test_case "watchdog timeout restores callee-saved regs"
            `Quick test_timeout_restores_registers;
          Alcotest.test_case "security ring bounded with drop count" `Quick
            test_security_ring_bounded;
        ] );
      ( "retry",
        [
          Alcotest.test_case "crash recovered within budget" `Quick
            test_retry_recovers_crash;
          Alcotest.test_case "persistent crash gives up with typed error"
            `Quick test_retry_gives_up;
          Alcotest.test_case "remount exhaustion gives up typed" `Quick
            test_remount_exhaustion;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fault + recovery events traced" `Quick
            test_fault_and_recovery_traced;
          Alcotest.test_case "no events when tracing disabled" `Quick
            test_fault_trace_noop_when_disabled;
          Alcotest.test_case "hooks are cycle-neutral" `Quick
            test_hooks_cycle_neutral;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, identical storm" `Quick
            test_storm_deterministic;
        ] );
      ("sweep", qc [ crash_sweep; fs_crash_sweep ]);
    ]
