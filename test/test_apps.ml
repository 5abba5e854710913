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
type kv_op = Put of string * bytes | Get of string

let prop_kv_wire_batch =
  let open QCheck.Gen in
  let bound = Kv_server.max_kv in
  let key =
    oneof [ map (Printf.sprintf "k%d") (int_bound 7); string_size (int_range 1 bound) ]
  in
  let value = map Bytes.of_string (string_size (int_range 1 bound)) in
  let op = oneof [ map2 (fun k v -> Put (k, v)) key value; map (fun k -> Get k) key ] in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | Put (k, v) -> Printf.sprintf "PUT %S (%d B)" k (Bytes.length v)
           | Get k -> Printf.sprintf "GET %S" k)
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
      let key k = (Bytes.of_string k, String.length k) in
      let b = Kv_wire.batch () in
      List.iter
        (function
          | Put (k, v) ->
            let kb, key_len = key k in
            Kv_wire.add_put b kb ~key_off:0 ~key_len v ~value_off:0 ~value_len:(Bytes.length v)
          | Get k ->
            let kb, key_len = key k in
            Kv_wire.add_get b kb ~key_off:0 ~key_len)
        ops;
      let reply = batched (Kv_wire.batch_msg b) in
      let n = List.length ops in
      let off = Array.make n 0 and len = Array.make n 0 in
      Kv_wire.batch_replies reply ~off ~len = n
      && List.for_all2
           (fun i op ->
             match op with
             | Put (k, v) ->
               let kb, key_len = key k in
               let r =
                 single
                   (Kv_wire.insert_msg kb ~key_off:0 ~key_len v ~value_off:0
                      ~value_len:(Bytes.length v))
               in
               Bytes.to_string r = "ok" && len.(i) = Kv_wire.reply_stored
             | Get k ->
               let kb, key_len = key k in
               let r = single (Kv_wire.query_msg kb ~key_off:0 ~key_len) in
               if Bytes.length r = 0 then len.(i) = Kv_wire.reply_miss
               else len.(i) >= 0 && Bytes.equal r (Bytes.sub reply off.(i) len.(i)))
           (List.init n Fun.id) ops)

(* Hostile wire bytes: a KV server over SkyBridge answers a malformed
   message [err] from a bound client, applies no op of a batch that
   fails its check, and keeps serving with a clean audit. *)
module Subkernel = Sky_core.Subkernel

let kv_over_skybridge () =
  let machine, k = machine_kernel () in
  let sb = Subkernel.init k in
  let server = Kernel.spawn k ~name:"kvstore" in
  let client = Kernel.spawn k ~name:"client" in
  let sid = Subkernel.register_server sb server (Kv_wire.handler (Kv_server.create machine) k) in
  Subkernel.register_client_to_server sb client ~server_id:sid;
  (sb, fun msg -> Subkernel.call sb ~core:0 ~client ~server_id:sid (Bytes.of_string msg))

let serving (sb, call) =
  call "I\000\003\000keyvalue" = Ok (Bytes.of_string "ok")
  && call "Q\000\003\000key" = Ok (Bytes.of_string "value")
  && Subkernel.audit sb = []

let test_kv_malformed () =
  let ((_, call) as kv) = kv_over_skybridge () in
  List.iter
    (fun (what, msg) ->
      Alcotest.(check bool) (what ^ " answers err") true (call msg = Ok (Bytes.of_string "err"));
      Alcotest.(check bool) (what ^ ": still serving") true (serving kv))
    [
      ("empty", "");
      ("unknown opcode", "X\000\003\000key");
      ("2-byte I", "I\000");
      ("I key past the end", "I\000\100\000key");
      ("Q key past the end", "Q\000\100\000key");
      ("B missing ops", "B\000\003\000");
      ("B bad op", "B\000\002\000I\003\000\001\000newvZ");
    ];
  Alcotest.(check bool) "the rejected batch applied nothing" true
    (call "Q\000\003\000new" = Ok Bytes.empty)

(* A full table answers [err] to a new key, single or batched, and the
   refused batch applies none of its ops; overwrites still land. *)
let test_kv_full () =
  let sb, call = kv_over_skybridge () in
  let put key value =
    Bytes.to_string
      (Kv_wire.insert_msg (Bytes.of_string key) ~key_off:0 ~key_len:(String.length key)
         (Bytes.of_string value) ~value_off:0 ~value_len:(String.length value))
  in
  let get key =
    call
      (Bytes.to_string
         (Kv_wire.query_msg (Bytes.of_string key) ~key_off:0 ~key_len:(String.length key)))
  in
  let batch puts =
    let b = Kv_wire.batch () in
    List.iter
      (fun (key, value) ->
        Kv_wire.add_put b (Bytes.of_string key) ~key_off:0 ~key_len:(String.length key)
          (Bytes.of_string value) ~value_off:0 ~value_len:(String.length value))
      puts;
    call (Bytes.to_string (Kv_wire.batch_msg b))
  in
  let answers what reply r = Alcotest.(check bool) what true (r = Ok (Bytes.of_string reply)) in
  let filled = ref 0 in
  for i = 0 to 4095 do
    if call (put (Printf.sprintf "k%04d" i) "v") = Ok (Bytes.of_string "ok") then incr filled
  done;
  Alcotest.(check int) "every slot filled" 4096 !filled;
  answers "a new key" "err" (call (put "fresh" "v"));
  answers "an overwrite" "ok" (call (put "k0007" "w"));
  answers "the overwrite landed" "w" (get "k0007");
  answers "a batch with a new key" "err" (batch [ ("k0001", "b"); ("fresh", "b") ]);
  answers "the refused batch applied nothing" "v" (get "k0001");
  answers "a batch of overwrites" "\002\000ss" (batch [ ("k0001", "b"); ("k0001", "c") ]);
  answers "in order" "c" (get "k0001");
  Alcotest.(check bool) "audit clean" true (Subkernel.audit sb = [])

let prop_kv_hostile =
  let kv = lazy (kv_over_skybridge ()) in
  let gen =
    QCheck.Gen.(
      let* op = oneofl [ "I"; "Q"; "B"; "X"; "" ] in
      let* rest =
        string_size ~gen:(oneof [ char; oneofl [ '\000'; '\001'; 'I'; 'Q' ] ]) (int_range 0 24)
      in
      return (op ^ rest))
  in
  QCheck.Test.make ~name:"kv server answers hostile bytes" ~count:300
    (QCheck.make ~print:String.escaped gen)
    (fun msg ->
      let ((_, call) as kv) = Lazy.force kv in
      Result.is_ok (call msg) && serving kv)

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
(* The SQLite stack over every transport of its service graph           *)
(* ------------------------------------------------------------------ *)

type db_op = Insert of int * char | Update of int * char | Query of int

(* One random op list on the stack over ST-IPC, MT-IPC and SkyBridge:
   every transport must answer every update and query as a plain
   Hashtbl does, and leave an fsck-clean image. Keys come from a pool of
   twelve so most queries and updates hit. *)
let prop_stack_transports =
  let module Stack = Sky_experiments.Stack in
  let value c = Bytes.make 100 c in
  let op =
    let open QCheck.Gen in
    let key = int_range 0 11 and fill = map Char.chr (int_range 97 122) in
    frequency
      [
        (3, map2 (fun k c -> Insert (k, c)) key fill);
        (2, map2 (fun k c -> Update (k, c)) key fill);
        (3, map (fun k -> Query k) key);
      ]
  in
  let print =
    QCheck.Print.list (function
      | Insert (k, c) -> Printf.sprintf "insert %d %c" k c
      | Update (k, c) -> Printf.sprintf "update %d %c" k c
      | Query k -> Printf.sprintf "query %d" k)
  in
  let answers ops ~insert ~update ~query =
    List.filter_map
      (function
        | Insert (key, c) ->
          insert key (value c);
          None
        | Update (key, c) -> Some (if update key (value c) then "updated" else "absent")
        | Query key -> Some (match query key with Some v -> Bytes.to_string v | None -> "none"))
      ops
  in
  QCheck.Test.make ~name:"stack: every transport answers as a Hashtbl" ~count:20
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 30) op))
    (fun ops ->
      let model = Hashtbl.create 16 in
      let expected =
        answers ops
          ~insert:(Hashtbl.replace model)
          ~update:(fun k v ->
            Hashtbl.mem model k
            && begin
                 Hashtbl.replace model k v;
                 true
               end)
          ~query:(Hashtbl.find_opt model)
      in
      List.for_all
        (fun transport ->
          let stack = Stack.build ~cores:3 ~disk_blocks:1024 ~transport () in
          let db = stack.Stack.db in
          answers ops
            ~insert:(fun key value -> Sky_sqldb.Db.insert db ~core:0 ~key ~value)
            ~update:(fun key value -> Sky_sqldb.Db.update db ~core:0 ~key ~value)
            ~query:(fun key -> Sky_sqldb.Db.query db ~core:0 ~key)
          = expected
          && Sky_xv6fs.Fsck.check (Stack.fs stack) ~core:0 = [])
        [ Stack.Ipc { st = true }; Stack.Ipc { st = false }; Stack.Skybridge ])

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
          Alcotest.test_case "malformed messages answer err" `Quick test_kv_malformed;
          Alcotest.test_case "full table answers err" `Quick test_kv_full;
        ]
        @ qc [ prop_kv_model; prop_kv_wire_batch; prop_kv_hostile ] );
      ( "pipeline",
        [
          Alcotest.test_case "all configs run" `Quick test_pipeline_all_configs;
          Alcotest.test_case "Fig 2/8 ordering" `Quick test_fig2_ordering;
          Alcotest.test_case "latency grows with size" `Quick
            test_latency_grows_with_size;
        ] );
      ("stack", qc [ prop_stack_transports ]);
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
        ]
        @ qc [ prop_zipf_deterministic ] );
    ]
