(* Security walkthrough (§4.4, §7): every attack the paper discusses,
   launched against a live SkyBridge deployment, and the defence that
   stops it.

   Run with:  dune exec examples/attack_demo.exe *)

open Sky_ukernel

let () =
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:64 () in
  let kernel = Kernel.create machine in
  let sb = Sky_core.Subkernel.init kernel in

  (* A victim server holding "sensitive" data. *)
  let victim = Kernel.spawn kernel ~name:"victim" in
  let victim_sid =
    Sky_core.Subkernel.register_server sb victim (fun ~core:_ _ ->
        Bytes.of_string "SECRET")
  in

  (* 1. The VMFUNC-faking attack: a process ships its own VMFUNC hoping
        to jump into the victim's EPT outside the trampoline. *)
  print_endline "1. self-prepared VMFUNC (SeCage's faking attack)";
  let attacker = Kernel.spawn kernel ~name:"attacker" in
  let evil_code =
    Sky_isa.Encode.encode_all
      [ Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rax, 0L);
        Sky_isa.Insn.Mov_ri (Sky_isa.Reg.Rcx, 1L);
        Sky_isa.Insn.Vmfunc (* jump into EPTP slot 1 without the trampoline *);
        Sky_isa.Insn.Add_ri (Sky_isa.Reg.Rax, 0xD4010F) (* hidden one, too *);
        Sky_isa.Insn.Ret ]
  in
  ignore (Kernel.map_code kernel attacker evil_code);
  Printf.printf "   before registration: %d VMFUNC pattern(s) in attacker code\n"
    (Sky_rewriter.Scan.count_pattern evil_code);
  ignore (Sky_core.Subkernel.register_server sb attacker (fun ~core:_ m -> m));
  let clean = Sky_core.Subkernel.proc_is_clean sb attacker in
  Printf.printf "   after registration (binary rewriting): clean = %b\n\n" clean;

  (* 2. Illegal server call: calling a server without a binding/key. *)
  print_endline "2. illegal server call (no registration, no calling key)";
  let mallory = Kernel.spawn kernel ~name:"mallory" in
  (try
     ignore
       (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client:mallory
          ~server_id:victim_sid (Bytes.of_string "gimme"))
   with Sky_core.Subkernel.Not_registered _ ->
     print_endline "   -> rejected: Not_registered\n");

  (* 3. A registered client presenting a forged calling key. *)
  print_endline "3. forged calling key";
  let client = Kernel.spawn kernel ~name:"client" in
  Sky_core.Subkernel.register_client_to_server sb client ~server_id:victim_sid;
  Kernel.context_switch kernel ~core:0 client;
  (try
     ignore
       (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client
          ~server_id:victim_sid ~attack:`Fake_server_key Bytes.empty)
   with Sky_core.Subkernel.Bad_server_key _ ->
     print_endline "   -> rejected: Bad_server_key (table lookup failed)\n");

  (* 4. Illegal client return: the server corrupts the echoed client key. *)
  print_endline "4. illegal client return (corrupted key echo)";
  (try
     ignore
       (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client
          ~server_id:victim_sid ~attack:`Corrupt_return_key Bytes.empty)
   with Sky_core.Subkernel.Bad_client_return _ ->
     print_endline "   -> detected: Bad_client_return\n");

  (* 5. DoS: a server that never comes back. *)
  print_endline "5. denial of service (server burns cycles forever)";
  let hog = Kernel.spawn kernel ~name:"hog" in
  let hog_sid =
    Sky_core.Subkernel.register_server sb hog (fun ~core m ->
        Kernel.user_compute kernel ~core ~cycles:10_000_000;
        m)
  in
  Sky_core.Subkernel.register_client_to_server sb client ~server_id:hog_sid;
  (try
     ignore
       (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client
          ~server_id:hog_sid ~timeout:50_000 Bytes.empty)
   with Sky_core.Subkernel.Failed (Timeout { elapsed; _ }) ->
     Printf.printf "   -> forced return after %d cycles (timeout mechanism)\n\n"
       elapsed);

  (* 6. Process misidentification is solved by the identity page. *)
  print_endline "6. process identity during a direct call";
  let seen = ref 0 in
  let probe_sid =
    Sky_core.Subkernel.register_server sb victim (fun ~core _ ->
        seen := Sky_core.Subkernel.current_identity sb ~core;
        Bytes.empty)
  in
  Sky_core.Subkernel.register_client_to_server sb client ~server_id:probe_sid;
  Kernel.context_switch kernel ~core:0 client;
  ignore
    (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client ~server_id:probe_sid
       Bytes.empty);
  Printf.printf
    "   identity page says pid %d (victim) inside the handler, pid %d \
     (client) after return\n\n"
    !seen
    (Sky_core.Subkernel.current_identity sb ~core:0);

  Printf.printf "security events logged for the kernel: %d\n"
    (List.length (Sky_core.Subkernel.security_events sb))
