(* Tests for the lib/net subsystem: NIC rings + RSS + coalesced IRQs,
   the HTTP-ish codec, the interleaved multi-core run loop, and the
   end-to-end web stack (SkyBridge vs slowpath IPC, determinism, and
   crash-safe worker recovery). *)

open Sky_sim
open Sky_ukernel
open Sky_net
module Fault = Sky_faults.Fault

let with_faults f = Fun.protect ~finally:Fault.disable f

let make ?(cores = 4) () =
  let machine = Machine.create ~cores ~mem_mib:64 () in
  let kernel = Kernel.create machine in
  (kernel, machine)

(* ------------------------------------------------------------------ *)
(* NIC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nic_roundtrip () =
  let k, _ = make () in
  let nic = Nic.create k ~queues:2 in
  let flow =
    (* find a flow RSS steers to queue 0 *)
    let rec go f = if Nic.queue_of_flow nic f = 0 then f else go (f + 1) in
    go 1
  in
  let payload = Bytes.of_string "GET /kv/hello" in
  Nic.deliver nic ~flow ~seq:0 ~payload ~at:5_000;
  Alcotest.(check int) "queued" 1 (Nic.rx_level nic ~queue:0);
  Alcotest.(check int) "other queue empty" 0 (Nic.rx_level nic ~queue:1);
  (match Nic.rx nic ~queue:0 ~core:0 with
  | None -> Alcotest.fail "expected a packet"
  | Some pkt ->
    Alcotest.(check int) "flow" flow pkt.Nic.flow;
    Alcotest.(check int) "seq" 0 pkt.Nic.seq;
    Alcotest.(check bytes) "payload survives the rings" payload pkt.Nic.payload;
    Alcotest.(check bool) "consumer advanced to delivery time" true
      (Cpu.cycles (Kernel.cpu k ~core:0) >= 5_000));
  Alcotest.(check bool) "drained" true (Nic.rx nic ~queue:0 ~core:0 = None)

let test_nic_rss_spreads () =
  let k, _ = make () in
  let nic = Nic.create k ~queues:4 in
  let counts = Array.make 4 0 in
  for flow = 0 to 1023 do
    let q = Nic.queue_of_flow nic flow in
    counts.(q) <- counts.(q) + 1
  done;
  Array.iteri
    (fun q c ->
      Alcotest.(check bool)
        (Printf.sprintf "queue %d gets a fair share (%d)" q c)
        true
        (c > 150 && c < 360))
    counts

let test_nic_irq_coalescing () =
  let k, _ = make () in
  let nic = Nic.create k ~queues:1 in
  for seq = 0 to 2 do
    Nic.deliver nic ~flow:1 ~seq ~payload:(Bytes.of_string "x") ~at:0
  done;
  Alcotest.(check int) "burst into empty ring raises one IRQ" 1
    (Nic.irqs_raised nic ~queue:0);
  while Nic.rx nic ~queue:0 ~core:0 <> None do () done;
  Nic.deliver nic ~flow:1 ~seq:3 ~payload:(Bytes.of_string "y") ~at:0;
  Alcotest.(check int) "empty->non-empty edge raises again" 2
    (Nic.irqs_raised nic ~queue:0)

let test_nic_ring_full_drops () =
  let k, _ = make () in
  let nic = Nic.create k ~queues:1 in
  for seq = 0 to Nic.ring_entries + 4 do
    Nic.deliver nic ~flow:1 ~seq ~payload:(Bytes.of_string "x") ~at:0
  done;
  Alcotest.(check int) "overflow counted, not raised" 5 (Nic.dropped nic);
  Alcotest.(check int) "ring holds capacity" Nic.ring_entries
    (Nic.rx_level nic ~queue:0)

(* ------------------------------------------------------------------ *)
(* HTTP codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_http_roundtrip () =
  let reqs =
    [
      Http.Kv_get "alpha";
      Http.Kv_put ("k1", Bytes.of_string "some value with spaces");
      Http.Fs_get "web0.html";
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request roundtrips" true
        (Http.parse_request (Http.serialize_request r) = r))
    reqs;
  let resp = Http.ok (Bytes.of_string "body bytes") in
  let back = Http.parse_response (Http.serialize_response resp) in
  Alcotest.(check int) "status" 200 back.Http.status;
  Alcotest.(check bytes) "body" resp.Http.body back.Http.body;
  List.iter
    (fun junk ->
      try
        ignore (Http.parse_request (Bytes.of_string junk));
        Alcotest.fail ("accepted junk: " ^ junk)
      with Http.Bad_request _ -> ())
    [ "DELETE /kv/x"; "GET /kv/"; "PUT /kv/nokey"; "" ]

(* The string-based codec the in-place one replaced, kept as the
   reference: same values, same [Bad_request] messages. *)
module Ref_http = struct
  let prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p

  let after p s = String.sub s (String.length p) (String.length s - String.length p)

  let parse_request b =
    let s = Bytes.to_string b in
    if prefix "GET /kv/" s then begin
      let key = after "GET /kv/" s in
      if key = "" then raise (Http.Bad_request "empty key");
      Http.Kv_get key
    end
    else if prefix "PUT /kv/" s then begin
      let rest = after "PUT /kv/" s in
      match String.index_opt rest ' ' with
      | None -> raise (Http.Bad_request "PUT without value")
      | Some i ->
        let key = String.sub rest 0 i in
        if key = "" then raise (Http.Bad_request "empty key");
        Http.Kv_put
          (key, Bytes.of_string (String.sub rest (i + 1) (String.length rest - i - 1)))
    end
    else if prefix "GET /fs/" s then begin
      let name = after "GET /fs/" s in
      if name = "" then raise (Http.Bad_request "empty path");
      Http.Fs_get name
    end
    else raise (Http.Bad_request (if String.length s > 32 then String.sub s 0 32 else s))

  let serialize_request = function
    | Http.Kv_get key -> Bytes.of_string ("GET /kv/" ^ key)
    | Http.Kv_put (key, value) ->
      Bytes.cat (Bytes.of_string ("PUT /kv/" ^ key ^ " ")) value
    | Http.Fs_get name -> Bytes.of_string ("GET /fs/" ^ name)

  let serialize_response { Http.status; body } =
    Bytes.cat (Bytes.of_string (string_of_int status ^ " ")) body

  let parse_response b =
    let s = Bytes.to_string b in
    match String.index_opt s ' ' with
    | None -> raise (Http.Bad_request "malformed response")
    | Some i ->
      let status =
        match int_of_string_opt (String.sub s 0 i) with
        | Some n -> n
        | None -> raise (Http.Bad_request "non-numeric status")
      in
      { Http.status; body = Bytes.sub b (i + 1) (Bytes.length b - i - 1) }

  let with_ttl ~ttl payload =
    Bytes.cat (Bytes.of_string (Printf.sprintf "TTL%d " ttl)) payload

  let split_ttl payload =
    let s = Bytes.to_string payload in
    if not (prefix "TTL" s) then (None, payload)
    else
      match String.index_opt s ' ' with
      | None -> (None, payload)
      | Some sp -> (
        match int_of_string_opt (String.sub s 3 (sp - 3)) with
        | Some ttl when ttl > 0 ->
          (Some ttl, Bytes.sub payload (sp + 1) (Bytes.length payload - sp - 1))
        | _ -> (None, payload))
end

type 'a outcome = Value of 'a | Bad of string | Raised of string

let outcome f x =
  match f x with
  | v -> Value v
  | exception Http.Bad_request m -> Bad m
  | exception e -> Raised (Printexc.to_string e)

(* Wire bytes: serialized requests and responses, with and without a
   TTL prefix, and arbitrary bytes seeded with the prefixes the parsers
   branch on. *)
let gen_wire =
  let open QCheck.Gen in
  let text = string_size ~gen:(oneofl [ 'a'; 'k'; '0'; '7'; ' '; ':'; '-'; '_'; 'x'; '/' ]) (int_bound 12) in
  let req =
    oneof
      [
        map (fun k -> Http.Kv_get k) text;
        map2 (fun k v -> Http.Kv_put (k, Bytes.of_string v)) text text;
        map (fun n -> Http.Fs_get n) text;
      ]
  in
  let status = oneof [ int_range (-20) 999; oneofl [ 200; 404; 503; max_int; min_int ] ] in
  let junk =
    map2 ( ^ )
      (oneofl [ ""; "GET /kv/"; "PUT /kv/"; "GET /fs/"; "TTL"; "TTL12 "; "TTL0 "; "TTL-3 ";
                "TTL0x1F "; "TTL1_0 "; "200 "; "-5 "; "0x1F "; "+7 "; "99999999999999999999 " ])
      (string_size ~gen:char (int_bound 40))
  in
  oneof
    [
      map (fun r -> `Req r) req;
      map2 (fun ttl r -> `Ttl (ttl, r)) (int_range 1 1_000_000_000) req;
      map2 (fun st body -> `Resp { Http.status = st; body = Bytes.of_string body }) status text;
      map (fun j -> `Junk (Bytes.of_string j)) junk;
    ]

let prop_codec_equivalence =
  QCheck.Test.make ~name:"in-place codec agrees with the string-based one" ~count:2000
    (QCheck.make gen_wire)
    (fun input ->
      let same name a b =
        if a <> b then QCheck.Test.fail_reportf "%s differs from the reference" name;
        match a with
        | Raised e -> QCheck.Test.fail_reportf "%s raised %s" name e
        | Value _ | Bad _ -> ()
      in
      let check_bytes b =
        same "parse_request" (outcome Http.parse_request b) (outcome Ref_http.parse_request b);
        same "parse_response" (outcome Http.parse_response b) (outcome Ref_http.parse_response b);
        same "ttl/strip_ttl"
          (outcome
             (fun b ->
               let n = Http.ttl b in
               ((if n < 0 then None else Some n), Http.strip_ttl b))
             b)
          (outcome Ref_http.split_ttl b)
      in
      (match input with
      | `Req r ->
        let b = Http.serialize_request r in
        if not (Bytes.equal b (Ref_http.serialize_request r)) then
          QCheck.Test.fail_report "serialize_request differs";
        check_bytes b
      | `Ttl (ttl, r) ->
        let b = Http.with_ttl ~ttl (Http.serialize_request r) in
        if not (Bytes.equal b (Ref_http.with_ttl ~ttl (Ref_http.serialize_request r))) then
          QCheck.Test.fail_report "with_ttl differs";
        check_bytes b
      | `Resp resp ->
        let b = Http.serialize_response resp in
        if not (Bytes.equal b (Ref_http.serialize_response resp)) then
          QCheck.Test.fail_report "serialize_response differs";
        check_bytes b
      | `Junk b -> check_bytes b);
      true)

(* ------------------------------------------------------------------ *)
(* Interleaved run loop                                                *)
(* ------------------------------------------------------------------ *)

let test_interleave_orders_by_virtual_time () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let order = ref [] in
  let left = [| 3; 3 |] in
  Machine.interleave machine ~cores:[ 0; 1 ] ~step:(fun ~core ->
      if left.(core) = 0 then Machine.Done
      else begin
        left.(core) <- left.(core) - 1;
        order := core :: !order;
        (* core 0 is slow: it should run once per two core-1 steps *)
        Cpu.charge (Machine.core machine core) (if core = 0 then 1000 else 500);
        Machine.Progress
      end);
  Alcotest.(check (list int)) "behind core always runs first"
    [ 0; 1; 0; 1; 1; 0 ]
    (List.rev (List.filteri (fun i _ -> i < 6) (List.rev !order)))

let test_interleave_stuck () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  try
    Machine.interleave machine ~cores:[ 0; 1 ] ~step:(fun ~core:_ -> Machine.Idle);
    Alcotest.fail "expected Stuck"
  with Machine.Stuck _ -> ()

(* [Machine.run_until] driven directly: the scheduler's rules, one per
   test. [trace] records which core each step ran. *)
let traced step =
  let trace = ref [] in
  let step ~core =
    trace := core :: !trace;
    step ~core
  in
  (step, fun () -> List.rev !trace)

let test_run_until_equal_clocks () =
  let machine = Machine.create ~cores:3 ~mem_mib:16 () in
  let step, order =
    traced (fun ~core ->
        Cpu.charge (Machine.core machine core) 100;
        Machine.Done)
  in
  (* Equal clocks: the lower index in the run's core list goes first,
     whatever the core ids. *)
  let run = Machine.start_run machine ~cores:[ 2; 0; 1 ] in
  ignore (Machine.run_until machine run ~step ~until:max_int);
  Alcotest.(check (list int)) "index order on ties" [ 2; 0; 1 ] (order ())

let test_run_until_done_not_restepped () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let left = [| 1; 5 |] in
  let step, order =
    traced (fun ~core ->
        if left.(core) = 0 then Alcotest.failf "core %d stepped after Done" core;
        Cpu.charge (Machine.core machine core) 10;
        left.(core) <- left.(core) - 1;
        if left.(core) = 0 then Machine.Done else Machine.Progress)
  in
  let run = Machine.start_run machine ~cores:[ 0; 1 ] in
  (* Core 0 finishes first and stays behind in virtual time: the
     laggard rule must still never pick it again. *)
  Alcotest.(check bool) "done" true
    (Machine.run_until machine run ~step ~until:max_int = `Done);
  Alcotest.(check (list int)) "core 0 stepped once" [ 0; 1; 1; 1; 1; 1 ] (order ())

let test_run_until_paused_then_done () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let steps = [| 0; 0 |] in
  let step, _ =
    traced (fun ~core ->
        steps.(core) <- steps.(core) + 1;
        Cpu.charge (Machine.core machine core) (if core = 0 then 100 else 300);
        if steps.(core) = 20 then Machine.Done else Machine.Progress)
  in
  let run = Machine.start_run machine ~cores:[ 0; 1 ] in
  let cycles core = Cpu.cycles (Machine.core machine core) in
  Alcotest.(check bool) "paused at 1000" true
    (Machine.run_until machine run ~step ~until:1000 = `Paused);
  (* Every live core reached the boundary; none was stepped once past it
     (a step may overshoot by its own charge, no more). *)
  Alcotest.(check (list int)) "parked at the boundary" [ 1000; 1200 ]
    [ cycles 0; cycles 1 ];
  let stepped = Array.copy steps in
  Alcotest.(check bool) "same boundary: paused, no step" true
    (Machine.run_until machine run ~step ~until:1000 = `Paused);
  Alcotest.(check (array int)) "nothing stepped" stepped steps;
  Alcotest.(check bool) "done once all finish" true
    (Machine.run_until machine run ~step ~until:max_int = `Done);
  Alcotest.(check (array int)) "every core ran to completion" [| 20; 20 |] steps;
  Alcotest.(check bool) "done stays done" true
    (Machine.run_until machine run ~step ~until:max_int = `Done)

let test_run_until_idle_hop () =
  let machine = Machine.create ~cores:3 ~mem_mib:16 () in
  let cycles core = Cpu.cycles (Machine.core machine core) in
  Cpu.advance_to (Machine.core machine 1) 3000;
  let step, order =
    traced (fun ~core ->
        match core with
        | 0 -> if cycles 0 > 0 then Machine.Done else Machine.Idle
        | _ -> Machine.Done)
  in
  (* Core 2 finishes first (index 0 on a tie at cycle 0); core 0 then
     idles with core 1 parked past the boundary: the hop still targets
     the parked core, one cycle past its clock. *)
  let run = Machine.start_run machine ~cores:[ 2; 0; 1 ] in
  Alcotest.(check bool) "paused" true
    (Machine.run_until machine run ~step ~until:1500 = `Paused);
  Alcotest.(check (list int)) "core 1 parked, never stepped" [ 2; 0 ] (order ());
  Alcotest.(check int) "hopped one past the parked core" 3001 (cycles 0);
  (* With an unparked live core below, the hop targets it instead. *)
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  Cpu.advance_to (Machine.core machine 1) 700;
  let idled = ref false in
  let step ~core =
    if core = 0 && not !idled then begin
      idled := true;
      Machine.Idle
    end
    else Machine.Done
  in
  let run = Machine.start_run machine ~cores:[ 0; 1 ] in
  ignore (Machine.run_until machine run ~step ~until:1);
  Alcotest.(check int) "hopped one past the lowest other clock" 701
    (Cpu.cycles (Machine.core machine 0))

(* ------------------------------------------------------------------ *)
(* End-to-end web stack                                                *)
(* ------------------------------------------------------------------ *)

let small ?(seed = 7) ?(workers = 2) transport =
  Web.build ~seed ~cores:4 ~conns:8 ~requests_per_conn:3 ~workers ~transport ()

let test_web_smoke () =
  let t = small Web.Skybridge in
  Web.run t;
  let lg = Web.loadgen t in
  Alcotest.(check int) "every request answered" (Loadgen.expected lg)
    (Loadgen.responses lg);
  Alcotest.(check int) "no validation errors" 0 (Loadgen.errors lg);
  Alcotest.(check int) "httpd served them" (Loadgen.expected lg)
    (Httpd.served (Web.httpd t));
  Alcotest.(check bool) "positive throughput" true (Web.throughput t > 0.0);
  (match Web.subkernel t with
  | None -> Alcotest.fail "skybridge stack has a subkernel"
  | Some sb -> Alcotest.(check int) "clean audit" 0
      (List.length (Sky_core.Subkernel.audit sb)));
  (* both workers actually served traffic *)
  Alcotest.(check bool) "worker 0 busy" true (Httpd.worker_served (Web.httpd t) 0 > 0);
  Alcotest.(check bool) "worker 1 busy" true (Httpd.worker_served (Web.httpd t) 1 > 0)

(* Hostile wire input never aborts the run: a stray packet with a
   nonzero sequence number on a flow nobody opened, and a duplicate of
   a load-generator SYN the server already consumed, are dropped and
   counted while every real request is served. *)
let test_stray_packets_dropped () =
  let t = small Web.Skybridge in
  let nic = Web.nic t in
  let junk = Http.serialize_request (Http.Kv_get "stray") in
  Nic.deliver nic ~flow:999_999 ~seq:3 ~payload:junk ~at:0;
  let s = Web.start_run t in
  (* The first load-generator connection: the first flow id RSS steers
     to queue 0. Its SYN is already in the ring, so the copy lands
     behind it and arrives out of sequence. *)
  let rec first f = if Nic.queue_of_flow nic f = 0 then f else first (f + 1) in
  Nic.deliver nic ~flow:(first 1) ~seq:0 ~payload:junk ~at:0;
  (match Web.advance t s ~until:max_int with
  | `Done -> ()
  | `Paused -> Alcotest.fail "run paused at max_int");
  let lg = Web.loadgen t in
  Alcotest.(check int) "every request answered" (Loadgen.expected lg) (Loadgen.responses lg);
  Alcotest.(check int) "no validation errors" 0 (Loadgen.errors lg);
  Alcotest.(check int) "both packets dropped" 2 (Httpd.dropped_packets (Web.httpd t))

let test_web_slowpath_and_gap () =
  let sky = small Web.Skybridge in
  Web.run sky;
  let ipc = small Web.Ipc_slowpath in
  Web.run ipc;
  Alcotest.(check int) "slowpath answers everything too"
    (Loadgen.expected (Web.loadgen ipc))
    (Loadgen.responses (Web.loadgen ipc));
  Alcotest.(check int) "slowpath validation clean" 0 (Loadgen.errors (Web.loadgen ipc));
  Alcotest.(check bool)
    (Printf.sprintf "SkyBridge beats slowpath IPC (%.0f vs %.0f req/s)"
       (Web.throughput sky) (Web.throughput ipc))
    true
    (Web.throughput sky > Web.throughput ipc)

let test_web_deterministic () =
  let run () =
    let t = small ~seed:11 Web.Skybridge in
    Web.run t;
    let h = Loadgen.latencies (Web.loadgen t) in
    ( Web.elapsed t,
      Loadgen.responses (Web.loadgen t),
      Sky_trace.Histogram.p50 h,
      Sky_trace.Histogram.p99 h,
      Sky_trace.Histogram.max_value h )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, bit-identical run" true (a = b)

let test_web_worker_crash_recovery () =
  with_faults @@ fun () ->
  Fault.reset ~seed:3 ();
  Fault.arm ~budget:2 ~site:Httpd.fault_site ~kind:Fault.Crash (Fault.At_hit 4);
  let t = small Web.Skybridge in
  Web.run t;
  let lg = Web.loadgen t in
  Alcotest.(check bool) "workers crashed" true (Httpd.restarts (Web.httpd t) >= 1);
  Alcotest.(check int) "zero lost requests" (Loadgen.expected lg)
    (Loadgen.responses lg);
  Alcotest.(check int) "zero corrupt responses" 0 (Loadgen.errors lg);
  match Web.subkernel t with
  | None -> ()
  | Some sb ->
    Alcotest.(check int) "audit still clean after revoke/rebind" 0
      (List.length (Sky_core.Subkernel.audit sb))

(* A request denied by EVERY receiver must terminate as a counted 403,
   not cycle around the endpoint forever. Revoking the kv:// service
   kills every worker's capability at once; the static files stay
   servable from the worker caches, so the run must finish with exactly
   the KV share of the mix as unservable errors. *)
let test_denied_by_all_terminates () =
  let t = small Web.Skybridge in
  (match Web.mesh t with
  | None -> Alcotest.fail "skybridge stack has a mesh"
  | Some mesh -> ignore (Sky_mesh.Mesh.revoke_service mesh ~core:0 "kv://"));
  Web.run t;
  let lg = Web.loadgen t in
  Alcotest.(check int) "every request answered (served or 403)"
    (Loadgen.expected lg) (Loadgen.responses lg);
  Alcotest.(check bool) "unservable requests counted" true
    (Httpd.unservable (Web.httpd t) > 0);
  Alcotest.(check bool) "denials bounced before terminating" true
    (Httpd.denials (Web.httpd t) > 0);
  Alcotest.(check int) "load generator saw them as errors"
    (Httpd.unservable (Web.httpd t))
    (Loadgen.errors lg)

(* ------------------------------------------------------------------ *)
(* Open-loop generator + admission control                             *)
(* ------------------------------------------------------------------ *)

let accounted ol =
  Openloop.offered ol
  = Openloop.ok ol + Openloop.shed ol + Openloop.shed_wire ol
    + Openloop.unservable ol + Openloop.corrupt ol

let test_openloop_accounting () =
  (* Moderate load: everything served, nothing shed, invariant holds. *)
  let o =
    Web.build_open ~seed:5 ~tenants:8 ~mean_gap:4000 ~total:160 ~workers:2
      ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  Alcotest.(check bool) "finished" true (Openloop.finished ol);
  Alcotest.(check int) "all offered" 160 (Openloop.offered ol);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero errors at moderate load" 0 (Openloop.errors ol);
  Alcotest.(check int) "all goodput" 160 (Openloop.ok ol);
  Alcotest.(check bool) "connections churned" true (Openloop.churns ol > 0)

let test_openloop_deterministic () =
  let run () =
    let o =
      Web.build_open ~seed:13 ~tenants:10 ~mean_gap:900 ~total:250 ~workers:2
        ~admission:
          { Httpd.a_queue_cap = Some 4; a_default_ttl = None; a_batch_max = 3 }
        ~transport:Web.Skybridge ()
    in
    Web.run_open o;
    let ol = o.Web.o_ol in
    let h = Openloop.latencies ol in
    ( Openloop.ok ol,
      Openloop.shed ol,
      Openloop.churns ol,
      Sky_trace.Histogram.p50 h,
      Sky_trace.Histogram.p99 h,
      o.Web.o_elapsed )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, bit-identical run" true (a = b)

let test_admission_queue_cap_sheds () =
  (* Far past saturation with a tiny queue bound: overflow sheds as
     typed 503s at demux, and nothing is lost or corrupted. *)
  let o =
    Web.build_open ~seed:9 ~tenants:16 ~mean_gap:250 ~total:400 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = Some 2; a_default_ttl = None; a_batch_max = 1 }
      ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check bool) "queue-full sheds happened" true
    (Httpd.shed_queue o.Web.o_httpd > 0);
  Alcotest.(check int) "client saw every shed as a 503"
    (Httpd.shed o.Web.o_httpd + Openloop.shed_wire ol)
    (Openloop.shed ol + Openloop.shed_wire ol);
  Alcotest.(check int) "zero corrupt" 0 (Openloop.corrupt ol);
  Alcotest.(check int) "zero unservable" 0 (Openloop.unservable ol)

let test_admission_deadline_sheds () =
  (* A TTL so tight the queue can never be worked off: expired requests
     are shed, admitted ones still validate. *)
  let o =
    Web.build_open ~seed:21 ~tenants:12 ~mean_gap:400 ~total:300 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = None; a_default_ttl = None; a_batch_max = 1 }
      ~ttl:9_000 ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check bool) "deadline sheds happened" true
    (Httpd.shed_expired o.Web.o_httpd > 0);
  Alcotest.(check int) "zero corrupt" 0 (Openloop.corrupt ol);
  Alcotest.(check bool) "some goodput survived" true (Openloop.ok ol > 0)

let test_batching_amortizes () =
  (* Deep queues + batch_max > 1: workers drain several requests per
     quantum and carry their KV ops in one backend crossing. *)
  let o =
    Web.build_open ~seed:17 ~tenants:16 ~mean_gap:400 ~total:400 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = Some 8; a_default_ttl = None; a_batch_max = 4 }
      ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  let httpd = o.Web.o_httpd in
  Alcotest.(check bool) "batched crossings happened" true (Httpd.batches httpd > 0);
  Alcotest.(check bool) "each batch carries >= 2 ops" true
    (Httpd.batched_ops httpd >= 2 * Httpd.batches httpd);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero errors: batched replies validate" 0
    (Openloop.errors ol)

let test_openloop_worker_crash_zero_lost () =
  (* The chaos interlock: a worker crash mid-overload parks the live
     batch and replays it — every admitted request still resolves. *)
  with_faults @@ fun () ->
  Fault.reset ~seed:3 ();
  Fault.arm ~budget:2 ~site:Httpd.fault_site ~kind:Fault.Crash (Fault.At_hit 5);
  let o =
    Web.build_open ~seed:29 ~tenants:10 ~mean_gap:1200 ~total:200 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = Some 16; a_default_ttl = None; a_batch_max = 3 }
      ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  Alcotest.(check bool) "workers crashed" true (Httpd.restarts o.Web.o_httpd >= 1);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero corrupt under crash replay" 0 (Openloop.corrupt ol)

let () =
  Alcotest.run "net"
    [
      ( "nic",
        [
          Alcotest.test_case "roundtrip" `Quick test_nic_roundtrip;
          Alcotest.test_case "rss-spreads" `Quick test_nic_rss_spreads;
          Alcotest.test_case "irq-coalescing" `Quick test_nic_irq_coalescing;
          Alcotest.test_case "ring-full-drops" `Quick test_nic_ring_full_drops;
        ] );
      ( "http",
        [ Alcotest.test_case "codec" `Quick test_http_roundtrip ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_codec_equivalence ] );
      ( "interleave",
        [
          Alcotest.test_case "virtual-time-order" `Quick
            test_interleave_orders_by_virtual_time;
          Alcotest.test_case "stuck-detection" `Quick test_interleave_stuck;
          Alcotest.test_case "equal-clocks-lower-index" `Quick test_run_until_equal_clocks;
          Alcotest.test_case "done-never-restepped" `Quick
            test_run_until_done_not_restepped;
          Alcotest.test_case "paused-then-done" `Quick test_run_until_paused_then_done;
          Alcotest.test_case "idle-hop-counts-parked" `Quick test_run_until_idle_hop;
        ] );
      ( "web",
        [
          Alcotest.test_case "smoke" `Quick test_web_smoke;
          Alcotest.test_case "stray-packets-dropped" `Quick test_stray_packets_dropped;
          Alcotest.test_case "skybridge-vs-slowpath" `Quick test_web_slowpath_and_gap;
          Alcotest.test_case "deterministic" `Quick test_web_deterministic;
          Alcotest.test_case "worker-crash-recovery" `Quick
            test_web_worker_crash_recovery;
          Alcotest.test_case "denied-by-all-terminates" `Quick
            test_denied_by_all_terminates;
        ] );
      ( "overload",
        [
          Alcotest.test_case "openloop-accounting" `Quick
            test_openloop_accounting;
          Alcotest.test_case "openloop-deterministic" `Quick
            test_openloop_deterministic;
          Alcotest.test_case "queue-cap-sheds" `Quick
            test_admission_queue_cap_sheds;
          Alcotest.test_case "deadline-sheds" `Quick
            test_admission_deadline_sheds;
          Alcotest.test_case "batching-amortizes" `Quick test_batching_amortizes;
          Alcotest.test_case "crash-zero-lost" `Quick
            test_openloop_worker_crash_zero_lost;
        ] );
    ]
