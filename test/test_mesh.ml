(* Tests for the lib/mesh subsystem: the URI name service (per-core
   caches, epoch invalidation, re-registration freshness), refcounted
   capability grants over dependency closures, suspend/resume with
   revocation in between, crash recovery through the mesh, and the
   multi-receiver endpoint's conservation invariant. *)

open Sky_sim
open Sky_ukernel
module Subkernel = Sky_core.Subkernel
module Retry = Sky_core.Retry
module Mesh = Sky_mesh.Mesh
module Endpoint = Sky_mesh.Endpoint
module Fault = Sky_faults.Fault

let with_faults f = Fun.protect ~finally:Fault.disable f
let echo tag ~core:_ msg = Bytes.cat (Bytes.of_string tag) msg

(* One dep server ("store") and two services over it: [svc://] depends
   on the store, [raw://] is the store itself — the overlapping-closure
   shape the refcounting must get right. With [nested], svc:// answers
   with the store's reply to the message, over a nested call. *)
type fixture = {
  sb : Subkernel.t;
  mesh : Mesh.t;
  client : Proc.t;
  store_sid : int;
  svc_sid : int;
}

let make ?(cores = 4) ?(seed = 1) ?(nested = false) () =
  let machine = Machine.create ~cores ~mem_mib:64 () in
  let kernel = Kernel.create machine in
  let sb = Subkernel.init ~seed kernel in
  let mesh = Mesh.create sb in
  let store_proc = Kernel.spawn kernel ~name:"store" in
  let svc_proc = Kernel.spawn kernel ~name:"meshsvc" in
  let client = Kernel.spawn kernel ~name:"client" in
  let store_sid =
    Subkernel.register_server sb store_proc ~connection_count:cores
      (echo "store:")
  in
  let svc_handler =
    if nested then fun ~core msg ->
      echo "svc:" ~core
        (Subkernel.direct_server_call sb ~core ~client:svc_proc ~server_id:store_sid msg)
    else echo "svc:"
  in
  let svc_sid =
    Subkernel.register_server sb svc_proc ~connection_count:cores ~deps:[ store_sid ]
      svc_handler
  in
  Mesh.register mesh ~core:0 ~uri:"raw://" ~server_id:store_sid;
  Mesh.register mesh ~core:0 ~uri:"svc://" ~server_id:svc_sid;
  Mesh.connect mesh client;
  { sb; mesh; client; store_sid; svc_sid }

(* The routed call's outcome as a result, for the assertions below. *)
let routed f ?(client = f.client) uri msg =
  match Mesh.call f.mesh ~core:0 ~client ~timeout:(-1) uri (Bytes.of_string msg) with
  | reply -> Ok (Bytes.to_string reply)
  | exception Subkernel.Failed e -> Error e

let call_ok f uri =
  match routed f uri "ping" with
  | Ok reply -> reply
  | Error (Subkernel.Denied _) -> Alcotest.failf "denied %s" uri
  | Error _ -> Alcotest.fail "retry budget exhausted"

let check_audit f name =
  Alcotest.(check int) (name ^ ": mesh audit clean") 0
    (List.length (Mesh.audit f.mesh));
  Alcotest.(check int) (name ^ ": subkernel audit clean") 0
    (List.length (Subkernel.audit f.sb))

let has_binding f ~sid =
  List.mem (f.client.Proc.pid, sid) (Subkernel.bindings f.sb)

(* ------------------------------------------------------------------ *)
(* name service                                                        *)
(* ------------------------------------------------------------------ *)

let test_resolve_and_call () =
  let f = make () in
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
  Alcotest.(check string) "routed call reaches the handler" "svc:ping"
    (call_ok f "svc://");
  let misses = Mesh.resolves f.mesh in
  ignore (call_ok f "svc://");
  ignore (call_ok f "svc://");
  Alcotest.(check int) "repeat resolutions hit the per-core cache" misses
    (Mesh.resolves f.mesh);
  Alcotest.(check bool) "cache hits counted" true (Mesh.cache_hits f.mesh > 0);
  check_audit f "resolve"

let test_unresolved () =
  let f = make () in
  Mesh.connect f.mesh f.client;
  Alcotest.check_raises "call raises Unknown_service" (Mesh.Unknown_service "nope://")
    (fun () -> ignore (routed f "nope://" "x"));
  Alcotest.check_raises "grant raises Unknown_service"
    (Mesh.Unknown_service "nope://") (fun () ->
      ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "nope://"))

let test_reregister_freshness_on_every_core () =
  let f = make ~cores:4 () in
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
  (* Warm all four per-core caches against the v1 registration. *)
  for core = 0 to 3 do
    Alcotest.(check (option int))
      (Printf.sprintf "core %d resolves v1" core)
      (Some f.svc_sid)
      (Mesh.resolve f.mesh ~core ~client:f.client "svc://")
  done;
  let epoch_before = Mesh.epoch f.mesh in
  (* Hot re-registration: svc:// now names the store server. *)
  Mesh.register f.mesh ~core:0 ~uri:"svc://" ~server_id:f.store_sid;
  Alcotest.(check bool) "re-registration bumps the epoch" true
    (Mesh.epoch f.mesh > epoch_before);
  for core = 0 to 3 do
    Alcotest.(check (option int))
      (Printf.sprintf "core %d sees v2, not its stale cache" core)
      (Some f.store_sid)
      (Mesh.resolve f.mesh ~core ~client:f.client "svc://")
  done;
  Mesh.unregister f.mesh ~core:0 ~uri:"svc://";
  Alcotest.(check (option int)) "unregistered scheme stops resolving" None
    (Mesh.resolve f.mesh ~core:0 ~client:f.client "svc://")

(* ------------------------------------------------------------------ *)
(* grants, closures, refcounts                                         *)
(* ------------------------------------------------------------------ *)

let test_grant_covers_closure () =
  let f = make () in
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
  Alcotest.(check bool) "binding on the service" true
    (has_binding f ~sid:f.svc_sid);
  Alcotest.(check string) "call flows" "svc:ping" (call_ok f "svc://");
  check_audit f "closure"

let test_overlapping_closures_refcount () =
  let f = make () in
  let g_svc = Mesh.grant f.mesh ~core:0 ~client:f.client "svc://" in
  let g_raw = Mesh.grant f.mesh ~core:0 ~client:f.client "raw://" in
  (* The store sid is covered twice: via svc://'s dep closure and via
     raw:// directly. Revoking the svc grant must keep it alive. *)
  Mesh.revoke_grant f.mesh ~core:0 g_svc;
  Alcotest.(check bool) "svc grant dead" false (Mesh.grant_live f.mesh g_svc);
  Alcotest.(check string) "shared dep still reachable via raw://" "store:ping"
    (call_ok f "raw://");
  (match routed f "svc://" "x" with
  | Error (Subkernel.Denied { server_id }) when server_id = f.svc_sid -> ()
  | _ -> Alcotest.fail "revoked svc:// should be denied");
  check_audit f "after first revoke";
  Mesh.revoke_grant f.mesh ~core:0 g_raw;
  Alcotest.(check bool) "store binding gone once refcount hits zero" false
    (has_binding f ~sid:f.store_sid);
  (match routed f "raw://" "x" with
  | Error (Subkernel.Denied _) -> ()
  | _ -> Alcotest.fail "expected Denied after last revoke");
  Alcotest.(check bool) "denials counted" true (Mesh.denials f.mesh >= 2);
  check_audit f "after last revoke"

(* A grant lives or dies whole. svc:// calls the store, so revoking
   raw:// takes the svc:// grant's store capability: the grant dies with
   it, and the routed call is refused at the route — no crossing —
   instead of crossing into svc:// to fail on the retired store binding
   attempt after attempt (4 forced returns, then [Revoked]). *)
let test_grant_dies_with_its_dependency () =
  let f = make ~nested:true () in
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
  Alcotest.(check string) "svc:// calls the store" "svc:store:ping" (call_ok f "svc://");
  Alcotest.(check int) "the svc:// grant is retired" 1
    (Mesh.revoke_service f.mesh ~core:0 "raw://");
  (* Resolved ahead, so the routed call itself has nothing to cross for. *)
  ignore (Mesh.resolve f.mesh ~core:0 ~client:f.client "svc://");
  let calls0 = Subkernel.calls f.sb and forced0 = Subkernel.forced_returns f.sb in
  (match routed f "svc://" "x" with
  | Error (Subkernel.Denied { server_id }) when server_id = f.svc_sid -> ()
  | _ -> Alcotest.fail "expected Denied at the route");
  Alcotest.(check int) "no crossing" calls0 (Subkernel.calls f.sb);
  Alcotest.(check int) "no forced return" forced0 (Subkernel.forced_returns f.sb);
  Alcotest.(check bool) "no svc binding" false (has_binding f ~sid:f.svc_sid);
  Alcotest.(check bool) "no store binding" false (has_binding f ~sid:f.store_sid);
  check_audit f "dependency revoked"

(* ...and no capability of a dead grant survives it: a client granted
   only svc:// keeps neither its store binding nor a route to raw://
   once svc:// is revoked. *)
let test_revoked_grant_leaves_no_dependency () =
  let f = make () in
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
  Alcotest.(check int) "the grant is retired" 1 (Mesh.revoke_service f.mesh ~core:0 "svc://");
  Alcotest.(check bool) "store binding retired" false (has_binding f ~sid:f.store_sid);
  (match routed f "raw://" "x" with
  | Error (Subkernel.Denied { server_id }) when server_id = f.store_sid -> ()
  | _ -> Alcotest.fail "raw:// must be denied");
  check_audit f "grant revoked"

let test_revoke_service_retires_subtree () =
  let f = make () in
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
  let retired = Mesh.revoke_service f.mesh ~core:0 "svc://" in
  Alcotest.(check int) "both grants retired at once" 2 retired;
  (match routed f "svc://" "x" with
  | Error (Subkernel.Denied _) -> ()
  | _ -> Alcotest.fail "expected Denied after revoke_service");
  check_audit f "revoke_service"

(* ------------------------------------------------------------------ *)
(* suspend / resume, crash recovery                                    *)
(* ------------------------------------------------------------------ *)

let test_suspend_revoke_resume_degrades () =
  let f = make () in
  let g_svc = Mesh.grant f.mesh ~core:0 ~client:f.client "svc://" in
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "raw://");
  Subkernel.suspend f.sb ~core:0 f.client;
  (* The capability dies while the client is down: resume must NOT
     resurrect the binding — degradation, not resurrection. *)
  Mesh.revoke_grant f.mesh ~core:0 g_svc;
  Subkernel.resume f.sb f.client;
  (match routed f "svc://" "x" with
  | Error (Subkernel.Denied { server_id }) when server_id = f.svc_sid -> ()
  | _ -> Alcotest.fail "revoked-while-down grant must stay down");
  Alcotest.(check string) "surviving grant resumed intact" "store:ping"
    (call_ok f "raw://");
  check_audit f "resume"

(* A pair revoked for good stays revoked across a server restart. Each
   case once ended with the client's svc:// and store bindings
   re-established behind the mesh's back (2 [mesh.binding-outlives-cap]
   and 2 [flow.closure]): while svc:// was down, while the client was
   suspended, and as a dependency of the restarted svc://. *)
let crash_svc f ~client =
  Fault.reset ~seed:3 ();
  Fault.arm ~budget:1 ~site:"server.meshsvc" ~kind:Fault.Crash (Fault.At_hit 1);
  match routed f ~client "svc://" "x" with
  | Ok _ -> Fault.disable ()
  | Error _ -> Alcotest.fail "the routed call must recover through a restart"

let check_stays_revoked f name ~sid =
  check_audit f name;
  Alcotest.(check bool) (name ^ ": no binding") false (has_binding f ~sid)

let second_client f =
  let other = Kernel.spawn (Subkernel.kernel f.sb) ~name:"other" in
  ignore (Mesh.grant f.mesh ~core:0 ~client:other "svc://");
  other

let test_revoked_while_server_down () =
  with_faults (fun () ->
      let f = make () in
      let g = Mesh.grant f.mesh ~core:0 ~client:f.client "svc://" in
      let other = second_client f in
      Fault.reset ~seed:3 ();
      Fault.arm ~budget:1 ~site:"server.meshsvc" ~kind:Fault.Crash (Fault.At_hit 1);
      (match
         Subkernel.call f.sb ~core:0 ~client:other ~server_id:f.svc_sid ~timeout:(-1)
           (Bytes.of_string "x")
       with
      | exception Subkernel.Failed (Subkernel.Crashed _) -> ()
      | _ -> Alcotest.fail "expected the crash");
      Mesh.revoke_grant f.mesh ~core:0 g;
      crash_svc f ~client:other;
      check_stays_revoked f "server down" ~sid:f.svc_sid)

let test_revoked_while_suspended () =
  with_faults (fun () ->
      let f = make () in
      let g = Mesh.grant f.mesh ~core:0 ~client:f.client "svc://" in
      let other = second_client f in
      Subkernel.suspend f.sb ~core:0 f.client;
      Mesh.revoke_grant f.mesh ~core:0 g;
      crash_svc f ~client:other;
      check_stays_revoked f "suspended" ~sid:f.svc_sid;
      Subkernel.resume f.sb f.client;
      check_stays_revoked f "resumed" ~sid:f.svc_sid)

(* A mesh grant dies whole, so only the Subkernel can retire the store
   pair under a live svc:// grant: the restart re-binds the orphaned
   svc:// pair, never its retired dependency. *)
let test_revoked_dependency () =
  with_faults (fun () ->
      let f = make () in
      ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
      ignore (second_client f);
      Subkernel.revoke_binding f.sb ~core:0 f.client ~server_id:f.store_sid
        ~reason:"retired under a live grant" ~into:Subkernel.Retired;
      crash_svc f ~client:f.client;
      check_stays_revoked f "dependency" ~sid:f.store_sid)

let test_crash_recovery_refreshes () =
  with_faults (fun () ->
      let f = make () in
      ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
      ignore (call_ok f "svc://") (* warm the cache, faults off *);
      Fault.reset ~seed:3 ();
      Fault.arm ~budget:1 ~site:"server.meshsvc" ~kind:Fault.Crash
        (Fault.At_hit 1);
      Alcotest.(check string) "call recovers through restart" "svc:ping"
        (call_ok f "svc://");
      Fault.disable ();
      let st = Mesh.retry_stats f.mesh in
      Alcotest.(check bool) "a restart happened" true (st.Retry.restarts >= 1);
      Alcotest.(check bool) "the retry recovered" true (st.Retry.retried_ok >= 1);
      Alcotest.(check string) "post-recovery calls keep flowing" "svc:ping"
        (call_ok f "svc://");
      check_audit f "crash recovery")

let test_nameserv_crash_mid_resolve () =
  with_faults (fun () ->
      let f = make () in
      ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
      Fault.reset ~seed:5 ();
      Fault.arm ~budget:1 ~site:Mesh.fault_site ~kind:Fault.Crash
        (Fault.At_hit 1);
      (* Force a wire resolve on a cold core: the name service crashes
         mid-resolve, restarts, and the resolve retries transparently. *)
      Alcotest.(check (option int)) "resolve survives the nameserv crash"
        (Some f.svc_sid)
        (Mesh.resolve f.mesh ~core:3 ~client:f.client "svc://");
      Fault.disable ();
      check_audit f "nameserv crash")

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

(* Conservation: under any interleaving of pushes and pops across the
   receivers, every pushed item is popped exactly once. *)
let prop_endpoint_conservation =
  QCheck.Test.make ~name:"endpoint conserves items under any interleaving"
    ~count:30
    QCheck.(list (pair (int_bound 3) (int_bound 4)))
    (fun ops ->
      let machine = Machine.create ~cores:4 ~mem_mib:32 () in
      let kernel = Kernel.create machine in
      let ep = Endpoint.create kernel ~name:"qc" ~receivers:4 in
      let pushed = ref [] and popped = ref [] in
      let next = ref 0 in
      List.iter
        (fun (recv, op) ->
          if op = 0 then (
            (* op 0: pop for [recv]; anything else: push (round-robin
               when the receiver index is out of range). *)
            let v = Endpoint.pop ep ~core:recv ~recv in
            if v >= 0 then popped := v :: !popped)
          else begin
            let v = !next in
            incr next;
            pushed := v :: !pushed;
            if op = 1 then Endpoint.push ep ~core:0 v
            else Endpoint.push ep ~core:0 ~receiver:recv v
          end)
        ops;
      (* Drain: rotate over receivers until the endpoint is empty. *)
      let rec drain r guard =
        if Endpoint.pending ep > 0 && guard > 0 then begin
          (let v = Endpoint.pop ep ~core:(r mod 4) ~recv:(r mod 4) in
           if v >= 0 then popped := v :: !popped);
          drain (r + 1) (guard - 1)
        end
      in
      drain 0 (4 * (List.length ops + 4));
      Endpoint.pending ep = 0
      && List.sort compare !popped = List.sort compare !pushed
      && Endpoint.pushed ep = List.length !pushed
      && Endpoint.popped ep = List.length !pushed)

(* The queue discipline the ring endpoint must keep, on [Queue]s: FIFO
   per receiver, the round-robin push cursor, [try_push]'s capacity
   check before the cursor moves, and steals from the longest peer
   queue, ties to the lowest index. *)
module Ref_endpoint = struct
  type t = {
    queues : int Queue.t array;
    capacity : int;
    mutable rr : int;
    mutable pushed : int;
    mutable popped : int;
    mutable steals : int;
    mutable rejected : int;
  }

  let create ~capacity receivers =
    {
      queues = Array.init receivers (fun _ -> Queue.create ());
      capacity;
      rr = 0;
      pushed = 0;
      popped = 0;
      steals = 0;
      rejected = 0;
    }

  let push t ?receiver item =
    let n = Array.length t.queues in
    let r =
      match receiver with
      | Some r -> r mod n
      | None ->
        let r = t.rr in
        t.rr <- (r + 1) mod n;
        r
    in
    Queue.add item t.queues.(r);
    t.pushed <- t.pushed + 1

  let try_push t item =
    if Queue.length t.queues.(t.rr) >= t.capacity then begin
      t.rejected <- t.rejected + 1;
      false
    end
    else begin
      push t item;
      true
    end

  let pop t ~recv =
    let take q =
      t.popped <- t.popped + 1;
      Queue.take q
    in
    if not (Queue.is_empty t.queues.(recv)) then take t.queues.(recv)
    else begin
      let src = ref (-1) and best = ref 0 in
      Array.iteri
        (fun i q ->
          if i <> recv && Queue.length q > !best then begin
            src := i;
            best := Queue.length q
          end)
        t.queues;
      if !src < 0 then -1
      else begin
        t.steals <- t.steals + 1;
        take t.queues.(!src)
      end
    end

  let pending t = Array.fold_left (fun a q -> a + Queue.length q) 0 t.queues
end

(* Order: the ring endpoint and the [Queue] reference, driven with the
   same pushes, [try_push]es, pops and steals, pop the same id every
   time and keep the same counters. Small capacities fill the rings
   past their initial size, so growth is crossed mid-run. *)
let prop_endpoint_order =
  QCheck.Test.make ~name:"ring endpoint pops what a Queue endpoint pops" ~count:200
    QCheck.(
      triple (int_range 1 4) (option (int_range 1 12))
        (list_of_size Gen.(int_range 0 300) (pair (int_bound 3) (int_bound 5))))
    (fun (receivers, capacity, ops) ->
      let machine = Machine.create ~cores:4 ~mem_mib:32 () in
      let kernel = Kernel.create machine in
      let ep = Endpoint.create ?capacity kernel ~name:"order" ~receivers in
      let model =
        Ref_endpoint.create ~capacity:(Option.value capacity ~default:max_int) receivers
      in
      let next = ref 0 in
      let fresh () =
        incr next;
        !next
      in
      List.iter
        (fun (r, op) ->
          let recv = r mod receivers in
          match op with
          | 0 | 1 ->
            let got = Endpoint.pop ep ~core:recv ~recv in
            let want = Ref_endpoint.pop model ~recv in
            if got <> want then
              QCheck.Test.fail_reportf "pop %d: ring %d, reference %d" recv got want
          | 2 ->
            let v = fresh () in
            Endpoint.push ep ~core:0 v;
            Ref_endpoint.push model v
          | 3 ->
            let v = fresh () in
            Endpoint.push ep ~core:0 ~receiver:r v;
            Ref_endpoint.push model ~receiver:r v
          | _ ->
            let v = fresh () in
            if Endpoint.try_push ep ~core:0 v <> Ref_endpoint.try_push model v then
              QCheck.Test.fail_report "try_push decisions differ")
        ops;
      Endpoint.pending ep = Ref_endpoint.pending model
      && Endpoint.pushed ep = model.Ref_endpoint.pushed
      && Endpoint.popped ep = model.Ref_endpoint.popped
      && Endpoint.steals ep = model.Ref_endpoint.steals
      && Endpoint.rejected ep = model.Ref_endpoint.rejected)

(* Refcount invariant: after any grant/revoke sequence over the two
   overlapping services, a binding exists iff it was established by a
   grant and is still covered by at least one live capability — the
   svc:// closure includes the store, so a live svc grant keeps the
   store binding alive across raw:// revocations. Calls succeed iff
   covered, and both audits stay clean at every step. *)
let prop_grant_revoke_refcount =
  QCheck.Test.make ~name:"grant/revoke refcounts over overlapping closures"
    ~count:8
    QCheck.(list (pair bool bool))
    (fun ops ->
      let f = make () in
      let live = [| []; [] |] (* per-uri stack of live grants *) in
      let uris = [| "svc://"; "raw://" |] in
      (* Model bindings: a grant establishes bindings for its whole dep
         closure (the store rides along with svc://); the revocation
         sweep removes a binding exactly when no live capability covers
         it any more. *)
      let bound = [| false; false |] in
      let ok = ref true in
      let step (is_grant, which) =
        let i = if which then 1 else 0 in
        if is_grant then begin
          live.(i) <-
            Mesh.grant f.mesh ~core:0 ~client:f.client uris.(i) :: live.(i);
          bound.(i) <- true;
          bound.(1) <- true (* the store is in both closures *)
        end
        else
          match live.(i) with
          | g :: rest ->
            Mesh.revoke_grant f.mesh ~core:0 g;
            live.(i) <- rest;
            bound.(0) <- bound.(0) && live.(0) <> [];
            bound.(1) <- bound.(1) && (live.(0) <> [] || live.(1) <> [])
          | [] -> ()
      in
      List.iter
        (fun op ->
          step op;
          let covered = [| live.(0) <> []; live.(0) <> [] || live.(1) <> [] |] in
          ok :=
            !ok
            && has_binding f ~sid:f.svc_sid = bound.(0)
            && has_binding f ~sid:f.store_sid = bound.(1)
            && List.length (Mesh.audit f.mesh) = 0
            && List.length (Subkernel.audit f.sb) = 0;
          Array.iteri
            (fun i uri ->
              ok :=
                !ok
                &&
                match (routed f uri "q", covered.(i)) with
                | Ok _, true -> true
                | Error (Subkernel.Denied _), false -> true
                | _ -> false)
            uris)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* audit                                                               *)
(* ------------------------------------------------------------------ *)

(* §7: a resting client whose RBX still holds an aborted server run's
   clobber pattern (the forced return did not restore the save area)
   is caught by the mesh's audit too, which runs the one driver. *)
let test_audit_callee_saved () =
  let f = make () in
  ignore (Mesh.grant f.mesh ~core:0 ~client:f.client "svc://");
  ignore (call_ok f "svc://");
  check_audit f "before";
  let regs = Subkernel.thread_regs f.sb f.client in
  regs.(Sky_isa.Reg.encoding Sky_isa.Reg.Rbx) <- 0xDEAD0000L;
  Alcotest.(check bool) "trampoline.callee-saved" true
    (Sky_analysis.Report.has ~invariant:"trampoline.callee-saved"
       (Mesh.audit f.mesh))

(* Hostile wire bytes from a connected client: the name service answers
   every request (an error byte for an empty, unknown or short one),
   neither raising nor crashing. *)
let prop_nameserv_hostile =
  let fixture =
    lazy
      (let f = make ~cores:1 () in
       (f, List.assoc f.client.Proc.pid (Subkernel.bindings f.sb)))
  in
  let gen =
    QCheck.Gen.(
      let* op = oneofl [ 'R'; 'G'; 'U'; 'X'; '\000' ] in
      let* rest = string_size ~gen:char (int_range 0 8) in
      let* cut = int_range 0 (1 + String.length rest) in
      return (Bytes.sub (Bytes.of_string (String.make 1 op ^ rest)) 0 cut))
  in
  QCheck.Test.make ~name:"name service answers hostile bytes" ~count:300
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen)
    (fun msg ->
      let f, ns_sid = Lazy.force fixture in
      match Subkernel.call f.sb ~core:0 ~client:f.client ~server_id:ns_sid ~timeout:(-1) msg with
      | reply -> Bytes.length reply >= 1
      | exception Subkernel.Failed _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mesh"
    [
      ( "name-service",
        [
          Alcotest.test_case "resolve + cached call" `Quick test_resolve_and_call;
          Alcotest.test_case "unresolved scheme" `Quick test_unresolved;
          Alcotest.test_case "re-register freshness per core" `Quick
            test_reregister_freshness_on_every_core;
        ] );
      ( "capabilities",
        [
          Alcotest.test_case "grant covers dep closure" `Quick
            test_grant_covers_closure;
          Alcotest.test_case "overlapping closures refcount" `Quick
            test_overlapping_closures_refcount;
          Alcotest.test_case "revoke_service retires subtree" `Quick
            test_revoke_service_retires_subtree;
          Alcotest.test_case "a grant dies with its dependency" `Quick
            test_grant_dies_with_its_dependency;
          Alcotest.test_case "a dead grant leaves no dependency" `Quick
            test_revoked_grant_leaves_no_dependency;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "suspend/revoke/resume degrades" `Quick
            test_suspend_revoke_resume_degrades;
          Alcotest.test_case "crash recovery through the mesh" `Quick
            test_crash_recovery_refreshes;
          Alcotest.test_case "nameserv crash mid-resolve" `Quick
            test_nameserv_crash_mid_resolve;
          Alcotest.test_case "revoked while the server is down" `Quick
            test_revoked_while_server_down;
          Alcotest.test_case "revoked while the client is suspended" `Quick
            test_revoked_while_suspended;
          Alcotest.test_case "revoked dependency of a restart" `Quick test_revoked_dependency;
        ] );
      ( "audit",
        [ Alcotest.test_case "callee-saved clobber caught" `Quick test_audit_callee_saved ] );
      ( "properties",
        qc
          [
            prop_endpoint_conservation;
            prop_endpoint_order;
            prop_grant_revoke_refcount;
            prop_nameserv_hostile;
          ] );
    ]
