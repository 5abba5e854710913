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
  let got = Nic.take nic ~queue:0 ~core:0 in
  Alcotest.(check int) "flow" flow (Nic.rx_flow nic ~queue:0);
  Alcotest.(check int) "seq" 0 (Nic.rx_seq nic ~queue:0);
  Alcotest.(check bytes) "payload survives the rings" payload got;
  Alcotest.(check bool) "consumer advanced to delivery time" true
    (Cpu.cycles (Kernel.cpu k ~core:0) >= 5_000);
  Alcotest.(check int) "drained" 0 (Nic.rx_level nic ~queue:0)

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
  while Nic.rx_level nic ~queue:0 > 0 do ignore (Nic.take nic ~queue:0 ~core:0) done;
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

(* The string-based codec the in-place one replaced, kept as the
   reference: its request variant and response record, the same
   [Bad_request] messages, and the client's old body check. *)
module Ref_http = struct
  type request = Kv_get of string | Kv_put of string * bytes | Fs_get of string
  type response = { status : int; body : bytes }
  type expect = Stored | Body of bytes

  let prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p

  let after p s = String.sub s (String.length p) (String.length s - String.length p)

  let parse_request b =
    let s = Bytes.to_string b in
    if prefix "GET /kv/" s then begin
      let key = after "GET /kv/" s in
      if key = "" then raise (Http.Bad_request "empty key");
      Kv_get key
    end
    else if prefix "PUT /kv/" s then begin
      let rest = after "PUT /kv/" s in
      match String.index_opt rest ' ' with
      | None -> raise (Http.Bad_request "PUT without value")
      | Some i ->
        let key = String.sub rest 0 i in
        if key = "" then raise (Http.Bad_request "empty key");
        Kv_put (key, Bytes.of_string (String.sub rest (i + 1) (String.length rest - i - 1)))
    end
    else if prefix "GET /fs/" s then begin
      let name = after "GET /fs/" s in
      if name = "" then raise (Http.Bad_request "empty path");
      Fs_get name
    end
    else raise (Http.Bad_request (if String.length s > 32 then String.sub s 0 32 else s))

  let serialize_request = function
    | Kv_get key -> Bytes.of_string ("GET /kv/" ^ key)
    | Kv_put (key, value) -> Bytes.cat (Bytes.of_string ("PUT /kv/" ^ key ^ " ")) value
    | Fs_get name -> Bytes.of_string ("GET /fs/" ^ name)

  let serialize_response { status; body } =
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
      { status; body = Bytes.sub b (i + 1) (Bytes.length b - i - 1) }

  let body_matches expect resp =
    resp.status = 200
    &&
    match expect with
    | Stored -> String.equal (Bytes.unsafe_to_string resp.body) "stored"
    | Body v -> Bytes.equal resp.body v

  (* How the client classified a response before it read it in place,
     with a 500 (a PUT the store refused) a refusal, as a 403 is. *)
  let classify expect b =
    match parse_response b with
    | { status = 503; _ } -> Loadgen.Shed
    | { status = 403 | 500; _ } -> Loadgen.Unservable
    | resp when body_matches expect resp -> Loadgen.Served
    | _ -> Loadgen.Corrupt
    | exception Http.Bad_request _ -> Loadgen.Corrupt

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

(* A request's wire bytes from the in-place writers. *)
let write ~ttl = function
  | Ref_http.Kv_get key -> Http.kv_get_request ~ttl key
  | Ref_http.Kv_put (key, value) -> Http.kv_put_request ~ttl key value
  | Ref_http.Fs_get name -> Http.fs_get_request ~ttl name

(* The in-place parse of a payload, past any TTL prefix as the server
   skips it, read back as the reference's request value. *)
let parsed b =
  let off = Http.request_off b in
  let sep = Http.parse_request b ~off in
  let k = off + Http.prefix_len and n = Bytes.length b in
  if sep = Http.kv_get then Ref_http.Kv_get (Bytes.sub_string b k (n - k))
  else if sep = Http.fs_get then Ref_http.Fs_get (Bytes.sub_string b k (n - k))
  else Ref_http.Kv_put (Bytes.sub_string b k (sep - k), Bytes.sub b (sep + 1) (n - sep - 1))

let test_http_roundtrip () =
  let reqs =
    [
      Ref_http.Kv_get "alpha";
      Ref_http.Kv_put ("k1", Bytes.of_string "some value with spaces");
      Ref_http.Fs_get "web0.html";
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request roundtrips" true (parsed (write ~ttl:(-1) r) = r);
      Alcotest.(check bool) "request roundtrips past a TTL" true (parsed (write ~ttl:77 r) = r))
    reqs;
  let body = Bytes.of_string "body bytes" in
  let resp = Http.response ~status:200 body ~off:0 ~len:(Bytes.length body) in
  Alcotest.(check int) "status" 200 (Http.status resp);
  Alcotest.(check bool) "body" true (Http.body_is resp body);
  List.iter
    (fun junk ->
      try
        ignore (Http.parse_request (Bytes.of_string junk) ~off:0);
        Alcotest.fail ("accepted junk: " ^ junk)
      with Http.Bad_request _ -> ())
    [ "DELETE /kv/x"; "GET /kv/"; "PUT /kv/nokey"; "" ]

type 'a outcome = Value of 'a | Bad of string | Raised of string

let outcome f x =
  match f x with
  | v -> Value v
  | exception Http.Bad_request m -> Bad m
  | exception e -> Raised (Printexc.to_string e)

(* Wire bytes: serialized requests and responses, with and without a
   TTL prefix, and arbitrary bytes seeded with the prefixes the parsers
   branch on. *)
let text =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'k'; '0'; '7'; ' '; ':'; '-'; '_'; 'x'; '/' ]) (int_bound 12))

let gen_wire =
  let open QCheck.Gen in
  let req =
    oneof
      [
        map (fun k -> Ref_http.Kv_get k) text;
        map2 (fun k v -> Ref_http.Kv_put (k, Bytes.of_string v)) text text;
        map (fun n -> Ref_http.Fs_get n) text;
      ]
  in
  let status = oneof [ int_range (-20) 999; oneofl [ 200; 403; 404; 500; 503; max_int; min_int ] ] in
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
      map2 (fun st body -> `Resp { Ref_http.status = st; body = Bytes.of_string body }) status text;
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
        same "parse_request" (outcome parsed b)
          (outcome (fun b -> Ref_http.parse_request (snd (Ref_http.split_ttl b))) b);
        same "status" (outcome Http.status b)
          (outcome (fun b -> (Ref_http.parse_response b).Ref_http.status) b);
        same "ttl/request_off"
          (outcome
             (fun b ->
               let n = Http.ttl b and off = Http.request_off b in
               ((if n < 0 then None else Some n), Bytes.sub b off (Bytes.length b - off)))
             b)
          (outcome Ref_http.split_ttl b)
      in
      (match input with
      | `Req r ->
        let b = write ~ttl:(-1) r in
        if not (Bytes.equal b (Ref_http.serialize_request r)) then
          QCheck.Test.fail_report "request bytes differ";
        check_bytes b
      | `Ttl (ttl, r) ->
        let b = write ~ttl r in
        if not (Bytes.equal b (Ref_http.with_ttl ~ttl (Ref_http.serialize_request r))) then
          QCheck.Test.fail_report "TTL request bytes differ";
        check_bytes b
      | `Resp resp ->
        let body = resp.Ref_http.body in
        let b =
          Http.response ~status:resp.Ref_http.status body ~off:0 ~len:(Bytes.length body)
        in
        if not (Bytes.equal b (Ref_http.serialize_response resp)) then
          QCheck.Test.fail_report "response bytes differ";
        check_bytes b
      | `Junk b -> check_bytes b);
      true)

(* The client's in-place response check against the reference parse and
   the old body check: responses, some carrying exactly the expected
   body, and junk, under either expectation. *)
let prop_response_check =
  let open QCheck.Gen in
  let expect =
    oneof [ return Ref_http.Stored; map (fun s -> Ref_http.Body (Bytes.of_string s)) text ]
  in
  let case =
    oneof
      [
        map (fun w -> (w, Ref_http.Stored)) gen_wire;
        map2 (fun w e -> (w, e)) gen_wire expect;
        (* The body the expectation names, exactly, extended or cut
           short by a byte. *)
        map3
          (fun st e edit ->
            let want =
              match e with Ref_http.Stored -> Bytes.of_string "stored" | Ref_http.Body v -> v
            in
            let n = Bytes.length want in
            let body =
              match edit with
              | 0 -> want
              | 1 -> Bytes.cat want (Bytes.of_string "x")
              | _ -> Bytes.sub want 0 (max 0 (n - 1))
            in
            (`Resp { Ref_http.status = st; body }, e))
          (oneofl [ 200; 201; 403; 500; 503 ]) expect (int_bound 2);
      ]
  in
  QCheck.Test.make ~name:"in-place response check agrees with the old one" ~count:2000
    (QCheck.make case)
    (fun (input, e) ->
      let b =
        match input with
        | `Req r -> write ~ttl:(-1) r
        | `Ttl (ttl, r) -> write ~ttl r
        | `Resp resp -> Ref_http.serialize_response resp
        | `Junk b -> b
      in
      let expect = match e with Ref_http.Stored -> Http.stored | Ref_http.Body v -> v in
      Loadgen.classify ~expect b = Ref_http.classify e b)

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

(* Closed and open arrivals share one accounting identity. *)
let accounted lg =
  Loadgen.offered lg
  = Loadgen.ok lg + Loadgen.shed lg + Loadgen.shed_wire lg
    + Loadgen.unservable lg + Loadgen.corrupt lg

let test_web_smoke () =
  let t = small Web.Skybridge in
  Web.run t;
  let lg = Web.loadgen t in
  Alcotest.(check int) "every request answered" (Loadgen.expected lg)
    (Loadgen.responses lg);
  Alcotest.(check int) "no validation errors" 0 (Loadgen.errors lg);
  Alcotest.(check int) "httpd served them" (Loadgen.expected lg)
    (Httpd.served (Web.httpd t));
  Alcotest.(check bool) "finished" true (Loadgen.finished lg);
  Alcotest.(check int) "every request offered" (Loadgen.expected lg) (Loadgen.offered lg);
  Alcotest.(check bool) "accounting identity" true (accounted lg);
  Alcotest.(check int) "all goodput" (Loadgen.expected lg) (Loadgen.ok lg);
  Alcotest.(check int) "no batched crossing" 0 (Httpd.batches (Web.httpd t));
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
  let junk = Http.kv_get_request ~ttl:(-1) "stray" in
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

(* More closed-loop connections than one 256-entry RX ring holds: the
   SYNs that find the ring full are shed at the wire and resolve like a
   response, so the run ends in accounting instead of waiting forever
   for answers to packets the NIC dropped. *)
let test_closed_ring_overflow () =
  let t =
    Web.build ~seed:1 ~cores:1 ~workers:1 ~conns:300 ~requests_per_conn:1
      ~transport:Web.Skybridge ()
  in
  Web.run t;
  let lg = Web.loadgen t in
  Alcotest.(check int) "the ring dropped 44 SYNs" 44 (Nic.dropped (Web.nic t));
  Alcotest.(check int) "each one counted shed_wire" 44 (Loadgen.shed_wire lg);
  Alcotest.(check int) "every request offered" 300 (Loadgen.offered lg);
  Alcotest.(check int) "expected" 300 (Loadgen.expected lg);
  Alcotest.(check int) "responses + shed_wire = expected" 300
    (Loadgen.responses lg + Loadgen.shed_wire lg);
  Alcotest.(check int) "no errors" 0 (Loadgen.errors lg);
  Alcotest.(check bool) "finished" true (Loadgen.finished lg);
  Alcotest.(check bool) "accounting identity" true (accounted lg)

(* A response on a connection with nothing in flight (here a replayed
   "stored" after the run) is corrupt, and nothing else moves: the
   finished run stays finished. *)
let test_stray_response_corrupt () =
  let t = small Web.Skybridge in
  Web.run t;
  let lg = Web.loadgen t and nic = Web.nic t in
  let rec first f = if Nic.queue_of_flow nic f = 0 then f else first (f + 1) in
  let stored = Bytes.of_string "200 stored" in
  Nic.tx nic ~queue:0 ~core:0 ~flow:(first 1) ~seq:0 stored;
  Alcotest.(check int) "responses unchanged" 24 (Loadgen.responses lg);
  Alcotest.(check int) "one error" 1 (Loadgen.errors lg);
  Alcotest.(check int) "counted corrupt" 1 (Loadgen.corrupt lg);
  Alcotest.(check bool) "still finished" true (Loadgen.finished lg)

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

let test_openloop_accounting () =
  (* Moderate load: everything served, nothing shed, invariant holds. *)
  let o =
    Web.build_open ~seed:5 ~tenants:8 ~mean_gap:4000 ~total:160 ~workers:2
      ~transport:Web.Skybridge ()
  in
  Web.run o;
  let ol = Web.loadgen o in
  Alcotest.(check bool) "finished" true (Loadgen.finished ol);
  Alcotest.(check int) "all offered" 160 (Loadgen.offered ol);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero errors at moderate load" 0 (Loadgen.errors ol);
  Alcotest.(check int) "all goodput" 160 (Loadgen.ok ol);
  Alcotest.(check bool) "connections churned" true (Loadgen.churns ol > 0)

let test_openloop_deterministic () =
  let run () =
    let o =
      Web.build_open ~seed:13 ~tenants:10 ~mean_gap:900 ~total:250 ~workers:2
        ~admission:
          { Httpd.a_queue_cap = Some 4; a_default_ttl = None; a_batch_max = 3 }
        ~transport:Web.Skybridge ()
    in
    Web.run o;
    let ol = Web.loadgen o in
    let h = Loadgen.latencies ol in
    ( Loadgen.ok ol,
      Loadgen.shed ol,
      Loadgen.churns ol,
      Sky_trace.Histogram.p50 h,
      Sky_trace.Histogram.p99 h,
      Web.elapsed o )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, bit-identical run" true (a = b)

(* The one run loop drives an open stack in slices too: 20,000-cycle
   advances end exactly where one [run] of a twin does. *)
let test_openloop_chunked () =
  let build () =
    Web.build_open ~seed:13 ~tenants:10 ~mean_gap:900 ~total:250 ~workers:2
      ~admission:{ Httpd.a_queue_cap = Some 4; a_default_ttl = None; a_batch_max = 3 }
      ~transport:Web.Skybridge ()
  in
  let summary o =
    let ol = Web.loadgen o in
    let h = Loadgen.latencies ol in
    ( (Web.elapsed o, Loadgen.ok ol, Loadgen.shed ol, Loadgen.shed_wire ol),
      (Loadgen.churns ol, Httpd.batches (Web.httpd o)),
      (Sky_trace.Histogram.p50 h, Sky_trace.Histogram.p99 h) )
  in
  let whole = build () in
  Web.run whole;
  let chunked = build () in
  let s = Web.start_run chunked in
  let clock = Machine.core (Web.kernel chunked).Kernel.machine 0 in
  let rec slices n until =
    match Web.advance chunked s ~until with
    | `Done -> n
    | `Paused -> slices (n + 1) (until + 20_000)
  in
  let n = slices 1 (Cpu.cycles clock + 20_000) in
  Alcotest.(check bool) (Printf.sprintf "paused between slices (%d slices)" n) true (n > 2);
  Alcotest.(check bool) "some batched crossings" true (Httpd.batches (Web.httpd whole) > 0);
  Alcotest.(check bool) "chunked = whole" true (summary chunked = summary whole)

let test_admission_queue_cap_sheds () =
  (* Far past saturation with a tiny queue bound: overflow sheds as
     typed 503s at demux, and nothing is lost or corrupted. *)
  let o =
    Web.build_open ~seed:9 ~tenants:16 ~mean_gap:250 ~total:400 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = Some 2; a_default_ttl = None; a_batch_max = 1 }
      ~transport:Web.Skybridge ()
  in
  Web.run o;
  let ol = Web.loadgen o in
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check bool) "queue-full sheds happened" true
    (Httpd.shed_queue (Web.httpd o) > 0);
  Alcotest.(check int) "client saw every shed as a 503"
    (Httpd.shed (Web.httpd o) + Loadgen.shed_wire ol)
    (Loadgen.shed ol + Loadgen.shed_wire ol);
  Alcotest.(check int) "zero corrupt" 0 (Loadgen.corrupt ol);
  Alcotest.(check int) "zero unservable" 0 (Loadgen.unservable ol)

let test_admission_deadline_sheds () =
  (* A TTL so tight the queue can never be worked off: expired requests
     are shed, admitted ones still validate. *)
  let o =
    Web.build_open ~seed:21 ~tenants:12 ~mean_gap:400 ~total:300 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = None; a_default_ttl = None; a_batch_max = 1 }
      ~ttl:9_000 ~transport:Web.Skybridge ()
  in
  Web.run o;
  let ol = Web.loadgen o in
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check bool) "deadline sheds happened" true
    (Httpd.shed_expired (Web.httpd o) > 0);
  Alcotest.(check int) "zero corrupt" 0 (Loadgen.corrupt ol);
  Alcotest.(check bool) "some goodput survived" true (Loadgen.ok ol > 0)

let test_batching_amortizes () =
  (* Deep queues + batch_max > 1: workers drain several requests per
     quantum and carry their KV ops in one backend crossing. *)
  let o =
    Web.build_open ~seed:17 ~tenants:16 ~mean_gap:400 ~total:400 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = Some 8; a_default_ttl = None; a_batch_max = 4 }
      ~transport:Web.Skybridge ()
  in
  Web.run o;
  let ol = Web.loadgen o in
  let httpd = Web.httpd o in
  Alcotest.(check bool) "batched crossings happened" true (Httpd.batches httpd > 0);
  Alcotest.(check bool) "each batch carries >= 2 ops" true
    (Httpd.batched_ops httpd >= 2 * Httpd.batches httpd);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero errors: batched replies validate" 0
    (Loadgen.errors ol)

(* An open-loop run long enough to fill the KV store's 4,096 slots: once
   a batch with a new key is refused ("err", nothing applied), each of
   its requests takes the individual path and gets its own answer, so
   the run ends with every arrival accounted for. A new key's PUT is
   then answered 500, a typed refusal: counted unservable by the client
   and the server alike, never corrupt (389 were). *)
let test_batch_refused_full_table () =
  let o =
    Web.build_open ~seed:2 ~tenants:32 ~mean_gap:700 ~total:100_000 ~workers:3
      ~admission:
        { Httpd.a_queue_cap = Some 8; a_default_ttl = None; a_batch_max = 4 }
      ~transport:Web.Skybridge ()
  in
  Web.run o;
  let ol = Web.loadgen o in
  Alcotest.(check bool) "finished" true (Loadgen.finished ol);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check bool) "batched crossings happened" true
    (Httpd.batches (Web.httpd o) > 0);
  Alcotest.(check int) "no corrupt response" 0 (Loadgen.corrupt ol);
  Alcotest.(check bool) "refusals counted unservable" true (Loadgen.unservable ol > 0);
  Alcotest.(check int) "server and client agree" (Httpd.unservable (Web.httpd o))
    (Loadgen.unservable ol)

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
  Web.run o;
  let ol = Web.loadgen o in
  Alcotest.(check bool) "workers crashed" true (Httpd.restarts (Web.httpd o) >= 1);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero corrupt under crash replay" 0 (Loadgen.corrupt ol)

(* A request holds an int slot from demux to its terminal response.
   A worker crash mid-batch parks the batch's slots and replays them; a
   request denied by every worker keeps its slot while it bounces and
   frees it with the 403. Either way every request is answered once,
   and the run ends with the endpoint empty and every slot free. *)
let test_slot_lifecycle () =
  let drained name httpd =
    Alcotest.(check int) (name ^ ": endpoint empty") 0
      (Sky_mesh.Endpoint.pending (Httpd.endpoint httpd));
    Alcotest.(check int) (name ^ ": every slot free") 0 (Httpd.slots_in_use httpd)
  in
  (with_faults @@ fun () ->
   Fault.reset ~seed:3 ();
   Fault.arm ~budget:3 ~site:Httpd.fault_site ~kind:Fault.Crash (Fault.At_hit 5);
   let o =
     Web.build_open ~seed:29 ~tenants:10 ~mean_gap:300 ~total:300 ~workers:2
       ~admission:{ Httpd.a_queue_cap = Some 16; a_default_ttl = None; a_batch_max = 4 }
       ~transport:Web.Skybridge ()
   in
   Web.run o;
   let ol = Web.loadgen o and httpd = Web.httpd o in
   Alcotest.(check bool) "workers crashed" true (Httpd.restarts httpd >= 1);
   Alcotest.(check bool) "batches were served" true (Httpd.batches httpd > 0);
   Alcotest.(check bool) "accounting invariant" true (accounted ol);
   Alcotest.(check int) "every admitted request answered once"
     (Loadgen.offered ol - Loadgen.shed_wire ol)
     (Loadgen.responses ol);
   Alcotest.(check int) "zero corrupt" 0 (Loadgen.corrupt ol);
   drained "crash" httpd);
  let t = small Web.Skybridge in
  (match Web.mesh t with
  | None -> Alcotest.fail "skybridge stack has a mesh"
  | Some mesh -> ignore (Sky_mesh.Mesh.revoke_service mesh ~core:0 "kv://"));
  Web.run t;
  let lg = Web.loadgen t and httpd = Web.httpd t in
  Alcotest.(check bool) "requests denied by every worker" true (Httpd.unservable httpd > 0);
  Alcotest.(check int) "every request answered once" (Loadgen.expected lg) (Loadgen.responses lg);
  Alcotest.(check bool) "accounting invariant" true (accounted lg);
  Alcotest.(check int) "only the 403s are errors" (Httpd.unservable httpd) (Loadgen.errors lg);
  drained "denial" httpd

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
        @ List.map QCheck_alcotest.to_alcotest [ prop_codec_equivalence; prop_response_check ] );
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
          Alcotest.test_case "closed-ring-overflow" `Quick test_closed_ring_overflow;
          Alcotest.test_case "stray-response-corrupt" `Quick test_stray_response_corrupt;
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
          Alcotest.test_case "openloop-chunked" `Quick test_openloop_chunked;
          Alcotest.test_case "openloop-deterministic" `Quick
            test_openloop_deterministic;
          Alcotest.test_case "queue-cap-sheds" `Quick
            test_admission_queue_cap_sheds;
          Alcotest.test_case "deadline-sheds" `Quick
            test_admission_deadline_sheds;
          Alcotest.test_case "batching-amortizes" `Quick test_batching_amortizes;
          Alcotest.test_case "batch-refused-full-table" `Quick
            test_batch_refused_full_table;
          Alcotest.test_case "crash-zero-lost" `Quick
            test_openloop_worker_crash_zero_lost;
          Alcotest.test_case "slot-lifecycle" `Quick test_slot_lifecycle;
        ] );
    ]
