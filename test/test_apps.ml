(* Tests for the KV pipeline (RC4 + KV store + all five interconnects)
   and the YCSB workload generator. *)

open Sky_ukernel
open Sky_kvstore

let machine_kernel ?(variant = Config.Sel4) () =
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:128 () in
  let k = Kernel.create ~config:(Config.default variant) machine in
  (machine, k)

(* ------------------------------------------------------------------ *)
(* RC4                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rc4_roundtrip () =
  let machine, _ = machine_kernel () in
  let cpu = Sky_sim.Machine.core machine 0 in
  let c = Rc4.create machine ~key:"secret" in
  let plain = Bytes.of_string "attack at dawn" in
  let cipher = Rc4.crypt c cpu plain in
  Alcotest.(check bool) "actually encrypts" false (Bytes.equal plain cipher);
  Alcotest.(check bool) "decrypt restores" true
    (Bytes.equal plain (Rc4.crypt c cpu cipher))

let test_rc4_known_vector () =
  (* RFC 6229-style check: RC4("Key", "Plaintext") = BBF316E8D940AF0AD3. *)
  let out = Rc4.crypt_pure (Bytes.of_string "Key") (Bytes.of_string "Plaintext") in
  let hex =
    String.concat ""
      (List.init (Bytes.length out) (fun i ->
           Printf.sprintf "%02X" (Char.code (Bytes.get out i))))
  in
  Alcotest.(check string) "test vector" "BBF316E8D940AF0AD3" hex

let test_rc4_charges_cycles () =
  let machine, _ = machine_kernel () in
  let cpu = Sky_sim.Machine.core machine 0 in
  let c = Rc4.create machine ~key:"k" in
  let t0 = Sky_sim.Cpu.cycles cpu in
  ignore (Rc4.crypt c cpu (Bytes.create 1024));
  let big = Sky_sim.Cpu.cycles cpu - t0 in
  let t1 = Sky_sim.Cpu.cycles cpu in
  ignore (Rc4.crypt c cpu (Bytes.create 16));
  let small = Sky_sim.Cpu.cycles cpu - t1 in
  Alcotest.(check bool) "cost scales with size" true (big > small)

(* ------------------------------------------------------------------ *)
(* KV server                                                           *)
(* ------------------------------------------------------------------ *)

let test_kv_insert_query () =
  let machine, _ = machine_kernel () in
  let cpu = Sky_sim.Machine.core machine 0 in
  let kv = Kv_server.create machine in
  Kv_server.insert kv cpu ~key:(Bytes.of_string "k1") ~value:(Bytes.of_string "v1");
  Kv_server.insert kv cpu ~key:(Bytes.of_string "k2") ~value:(Bytes.of_string "v2");
  (match Kv_server.query kv cpu ~key:(Bytes.of_string "k1") with
  | Some v -> Alcotest.(check string) "value" "v1" (Bytes.to_string v)
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "absent key" true
    (Kv_server.query kv cpu ~key:(Bytes.of_string "nope") = None);
  Alcotest.(check int) "entries" 2 (Kv_server.entries kv)

let test_kv_overwrite () =
  let machine, _ = machine_kernel () in
  let cpu = Sky_sim.Machine.core machine 0 in
  let kv = Kv_server.create machine in
  let key = Bytes.of_string "k" in
  Kv_server.insert kv cpu ~key ~value:(Bytes.of_string "old");
  Kv_server.insert kv cpu ~key ~value:(Bytes.of_string "new");
  Alcotest.(check int) "no duplicate entry" 1 (Kv_server.entries kv);
  match Kv_server.query kv cpu ~key with
  | Some v -> Alcotest.(check string) "latest" "new" (Bytes.to_string v)
  | None -> Alcotest.fail "missing"

let prop_kv_model =
  QCheck.Test.make ~name:"kv store agrees with Hashtbl" ~count:20
    QCheck.(
      list_of_size (Gen.int_range 1 100)
        (pair (string_of_size (Gen.int_range 1 16)) (string_of_size (Gen.int_range 1 32))))
    (fun pairs ->
      let machine, _ = machine_kernel () in
      let cpu = Sky_sim.Machine.core machine 0 in
      let kv = Kv_server.create machine in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Kv_server.insert kv cpu ~key:(Bytes.of_string k) ~value:(Bytes.of_string v);
          Hashtbl.replace model k v)
        pairs;
      Hashtbl.fold
        (fun k v acc ->
          acc
          &&
          match Kv_server.query kv cpu ~key:(Bytes.of_string k) with
          | Some got -> Bytes.to_string got = v
          | None -> false)
        model true)

(* The wire protocol: one 'B' message must answer, op by op, what
   single 'I'/'Q' messages answer on a twin store. Keys come from a
   small pool (so GETs hit and PUTs overwrite) or are random, up to
   [max_kv] bytes like the values. *)
let prop_kv_wire_batch =
  let open QCheck.Gen in
  let bound = Kv_server.max_kv in
  let key =
    oneof [ map (Printf.sprintf "k%d") (int_bound 7); string_size (int_range 1 bound) ]
  in
  let value = map Bytes.of_string (string_size (int_range 1 bound)) in
  let op =
    oneof
      [
        map2 (fun k v -> Kv_wire.Op_put (k, v)) key value;
        map (fun k -> Kv_wire.Op_get k) key;
      ]
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | Kv_wire.Op_put (k, v) -> Printf.sprintf "PUT %S (%d B)" k (Bytes.length v)
           | Kv_wire.Op_get k -> Printf.sprintf "GET %S" k)
         ops)
  in
  QCheck.Test.make ~name:"kv wire batch = single messages" ~count:50
    (QCheck.make ~print (list_size (int_range 1 40) op))
    (fun ops ->
      let store () =
        let machine, k = machine_kernel () in
        Kv_wire.handler (Kv_server.create machine) k ~core:0
      in
      let batched = store () and single = store () in
      let one = function
        | Kv_wire.Op_put (key, value) ->
          Kv_wire.R_stored (Bytes.to_string (single (Kv_wire.insert_msg ~key ~value)) = "ok")
        | Kv_wire.Op_get key ->
          let r = single (Kv_wire.query_msg ~key) in
          Kv_wire.R_value (if Bytes.length r = 0 then None else Some r)
      in
      Kv_wire.batch_replies (batched (Kv_wire.batch_msg ops)) = List.map one ops)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let pipeline_of config =
  let _, k = machine_kernel () in
  match config with
  | Pipeline.Skybridge ->
    let sb = Sky_core.Subkernel.init k in
    Pipeline.create ~sb k Pipeline.Skybridge
  | c -> Pipeline.create k c

let test_pipeline_functional configs () =
  (* Every interconnect must produce a working store: queries after
     inserts return decryptable data (exercised by [query] internally —
     a failed decrypt would diverge; here we check op counts and no
     exceptions). *)
  List.iter
    (fun config ->
      let p = pipeline_of config in
      let avg = Pipeline.run p ~core:0 ~ops:40 ~len:64 in
      if avg <= 0 then
        Alcotest.failf "%s: nonpositive latency" (Pipeline.config_name config))
    configs

let test_pipeline_all_configs () =
  test_pipeline_functional
    [ Pipeline.Baseline; Pipeline.Delay; Pipeline.Ipc_local; Pipeline.Ipc_cross;
      Pipeline.Skybridge ]
    ()

let test_fig2_ordering () =
  (* Figure 2 / Figure 8 shape at one size: Baseline < Delay < SkyBridge
     < IPC < IPC-CrossCore. *)
  let lat config =
    let p = pipeline_of config in
    ignore (Pipeline.run p ~core:0 ~ops:30 ~len:64);
    Pipeline.run p ~core:0 ~ops:100 ~len:64
  in
  let base = lat Pipeline.Baseline in
  let delay = lat Pipeline.Delay in
  let sky = lat Pipeline.Skybridge in
  let ipc = lat Pipeline.Ipc_local in
  let cross = lat Pipeline.Ipc_cross in
  let msg = Printf.sprintf "base %d delay %d sky %d ipc %d cross %d" base delay sky ipc cross in
  Alcotest.(check bool) (msg ^ ": base < delay") true (base < delay);
  Alcotest.(check bool) (msg ^ ": base < sky") true (base < sky);
  Alcotest.(check bool) (msg ^ ": sky < ipc") true (sky < ipc);
  Alcotest.(check bool) (msg ^ ": ipc < cross") true (ipc < cross)

let test_latency_grows_with_size () =
  let p = pipeline_of Pipeline.Baseline in
  ignore (Pipeline.run p ~core:0 ~ops:20 ~len:16);
  let small = Pipeline.run p ~core:0 ~ops:50 ~len:16 in
  let large = Pipeline.run p ~core:0 ~ops:50 ~len:1024 in
  Alcotest.(check bool)
    (Printf.sprintf "16B (%d) < 1024B (%d)" small large)
    true (small < large)

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let test_zipf_bounds () =
  let z = Sky_ycsb.Zipf.create ~items:100 (Sky_sim.Rng.create ~seed:3) in
  for _ = 1 to 5000 do
    let v = Sky_ycsb.Zipf.next z in
    if v < 0 || v >= 100 then Alcotest.fail "out of range"
  done

let test_zipf_skew () =
  (* The hottest 10% of items should draw well over 10% of requests. *)
  let z = Sky_ycsb.Zipf.create ~items:1000 (Sky_sim.Rng.create ~seed:11) in
  let hot = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Sky_ycsb.Zipf.next z < 100 then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "hot fraction %.2f > 0.4" frac)
    true (frac > 0.4)

let prop_zipf_deterministic =
  QCheck.Test.make ~name:"zipf deterministic per seed" ~count:20 QCheck.small_int
    (fun seed ->
      let a = Sky_ycsb.Zipf.create ~items:50 (Sky_sim.Rng.create ~seed) in
      let b = Sky_ycsb.Zipf.create ~items:50 (Sky_sim.Rng.create ~seed) in
      List.init 100 (fun _ -> Sky_ycsb.Zipf.next a)
      = List.init 100 (fun _ -> Sky_ycsb.Zipf.next b))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "apps"
    [
      ( "rc4",
        [
          Alcotest.test_case "roundtrip" `Quick test_rc4_roundtrip;
          Alcotest.test_case "known vector" `Quick test_rc4_known_vector;
          Alcotest.test_case "cost model" `Quick test_rc4_charges_cycles;
        ] );
      ( "kv_server",
        [
          Alcotest.test_case "insert/query" `Quick test_kv_insert_query;
          Alcotest.test_case "overwrite" `Quick test_kv_overwrite;
        ]
        @ qc [ prop_kv_model; prop_kv_wire_batch ] );
      ( "pipeline",
        [
          Alcotest.test_case "all configs run" `Quick test_pipeline_all_configs;
          Alcotest.test_case "Fig 2/8 ordering" `Quick test_fig2_ordering;
          Alcotest.test_case "latency grows with size" `Quick
            test_latency_grows_with_size;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
        ]
        @ qc [ prop_zipf_deterministic ] );
    ]
