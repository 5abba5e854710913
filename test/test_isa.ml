(* Tests for the x86-64 subset: encoder, decoder, interpreter. *)

open Sky_isa

let insn = Alcotest.testable Insn.pp ( = )

let hex s =
  String.concat " "
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let check_bytes what expected insn_v =
  let e = Encode.encode insn_v in
  Alcotest.(check string) what expected (hex e.Encode.bytes)

(* ------------------------------------------------------------------ *)
(* Encoder: known encodings                                            *)
(* ------------------------------------------------------------------ *)

let test_encode_simple () =
  check_bytes "nop" "90" Insn.Nop;
  check_bytes "ret" "c3" Insn.Ret;
  check_bytes "syscall" "0f 05" Insn.Syscall;
  check_bytes "vmfunc" "0f 01 d4" Insn.Vmfunc;
  check_bytes "cpuid" "0f a2" Insn.Cpuid;
  check_bytes "push rax" "50" (Insn.Push Reg.Rax);
  check_bytes "push r9" "41 51" (Insn.Push Reg.R9);
  check_bytes "pop rdi" "5f" (Insn.Pop Reg.Rdi)

let test_encode_mov () =
  check_bytes "mov rax, rbx (dst=rax src=rbx)" "48 89 d8" (Insn.Mov_rr (Reg.Rax, Reg.Rbx));
  check_bytes "mov $1, rax" "48 c7 c0 01 00 00 00" (Insn.Mov_ri (Reg.Rax, 1L));
  check_bytes "movabs" "48 b8 88 77 66 55 44 33 22 11"
    (Insn.Mov_ri (Reg.Rax, 0x1122334455667788L))

let test_encode_jmp_call () =
  check_bytes "jmp +0x10" "e9 10 00 00 00" (Insn.Jmp_rel 0x10);
  check_bytes "call -2" "e8 fe ff ff ff" (Insn.Call_rel (-2))

(* The paper's Table 3 shapes: instructions whose encoding embeds
   0F 01 D4. *)
let test_encode_table3_shapes () =
  (* Row 2: imul $0xD401, (rdi), rcx — ModRM = 0x0F. *)
  let e =
    Encode.encode
      (Insn.Imul_rri (Reg.Rcx, Insn.M (Insn.mem ~base:Reg.Rdi ()), 0xD401))
  in
  Alcotest.(check string) "imul ModRM=0F imm=D401"
    "48 69 0f 01 d4 00 00" (hex e.Encode.bytes);
  (* Row 3: lea 0xD401(rdi, rcx, 1), rbx — SIB = 0x0F. *)
  let e =
    Encode.encode
      (Insn.Lea (Reg.Rbx, Insn.mem ~base:Reg.Rdi ~index:(Reg.Rcx, 1) ~disp:0xD401 ()))
  in
  Alcotest.(check string) "lea SIB=0F" "48 8d 9c 0f 01 d4 00 00" (hex e.Encode.bytes);
  (* Row 4: add 0xD4010F(rax), rbx — displacement contains 0F 01 D4. *)
  let e =
    Encode.encode (Insn.Add_rm (Reg.Rbx, Insn.mem ~base:Reg.Rax ~disp:0xD4010F ()))
  in
  Alcotest.(check string) "disp contains pattern" "48 03 98 0f 01 d4 00"
    (hex e.Encode.bytes);
  (* Row 5: add $0xD4010F, rax — immediate contains 0F 01 D4. *)
  let e = Encode.encode (Insn.Add_ri (Reg.Rax, 0xD4010F)) in
  Alcotest.(check string) "imm contains pattern" "48 81 c0 0f 01 d4 00"
    (hex e.Encode.bytes)

let test_layout_fields () =
  let e =
    Encode.encode
      (Insn.Lea (Reg.Rbx, Insn.mem ~base:Reg.Rdi ~index:(Reg.Rcx, 1) ~disp:0xD401 ()))
  in
  let l = e.Encode.layout in
  Alcotest.(check (option int)) "modrm at 2" (Some 2) l.Encode.modrm_off;
  Alcotest.(check (option int)) "sib at 3" (Some 3) l.Encode.sib_off;
  Alcotest.(check (option int)) "disp at 4" (Some 4) l.Encode.disp_off;
  Alcotest.(check int) "disp32" 4 l.Encode.disp_len;
  let e = Encode.encode (Insn.Add_ri (Reg.Rax, 5)) in
  Alcotest.(check (option int)) "imm at 3" (Some 3) (e.Encode.layout.Encode.imm_off)

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

let decode_first bytes =
  Decode.decode_one (Bytes.of_string bytes) 0

let test_decode_vmfunc () =
  let d = decode_first "\x0f\x01\xd4" in
  Alcotest.(check (option insn)) "vmfunc" (Some Insn.Vmfunc) d.Decode.insn;
  Alcotest.(check int) "len 3" 3 d.Decode.len

let test_decode_0f01_group_not_vmfunc () =
  (* 0F 01 /0 with a memory ModRM (sgdt) must not decode as vmfunc and
     must consume its ModRM cluster. *)
  let d = decode_first "\x0f\x01\x00" in
  Alcotest.(check (option insn)) "opaque" None d.Decode.insn;
  Alcotest.(check int) "len 3 (opc2 + modrm)" 3 d.Decode.len

let test_decode_unknown_is_one_byte () =
  let d = decode_first "\xf4" (* hlt: not in subset *) in
  Alcotest.(check (option insn)) "opaque" None d.Decode.insn;
  Alcotest.(check int) "len 1" 1 d.Decode.len

let test_decode_all_boundaries () =
  let prog =
    [ Insn.Push Reg.Rbx; Insn.Mov_ri (Reg.Rbx, 7L); Insn.Add_rr (Reg.Rax, Reg.Rbx);
      Insn.Pop Reg.Rbx; Insn.Ret ]
  in
  let code = Encode.encode_all prog in
  let ds = Decode.decode_all code in
  Alcotest.(check int) "five instructions" 5 (List.length ds);
  List.iter2
    (fun expect d ->
      Alcotest.(check (option insn)) "roundtrip" (Some expect) d.Decode.insn)
    prog ds

let arb_insn = QCheck.make ~print:Insn.to_string Isa_gen.gen_insn

(* Mov_ri decodes to the value the hardware would load; normalize the
   expected side the same way (imm32 forms sign-extend). *)
let normalize = function
  | Insn.Imul_rri (d, rm, i) -> Insn.Imul_rri (d, rm, i)
  | x -> x

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 arb_insn
    (fun i ->
      let e = Encode.encode i in
      let d = Decode.decode_one (Bytes.of_string e.Encode.bytes) 0 in
      d.Decode.len = String.length e.Encode.bytes
      && d.Decode.insn = Some (normalize i))

let prop_decode_layout_matches_encode =
  QCheck.Test.make ~name:"decoder reproduces encoder field layout" ~count:500
    arb_insn (fun i ->
      let e = Encode.encode i in
      let d = Decode.decode_one (Bytes.of_string e.Encode.bytes) 0 in
      let le = e.Encode.layout and ld = d.Decode.layout in
      le.Encode.modrm_off = ld.Encode.modrm_off
      && le.Encode.sib_off = ld.Encode.sib_off
      && le.Encode.disp_off = ld.Encode.disp_off
      && le.Encode.disp_len = ld.Encode.disp_len
      && le.Encode.imm_off = ld.Encode.imm_off
      && le.Encode.imm_len = ld.Encode.imm_len)

let prop_decode_all_partitions =
  QCheck.Test.make ~name:"decode_all partitions the byte stream" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 30) arb_insn)
    (fun prog ->
      let code = Encode.encode_all prog in
      let ds = Decode.decode_all code in
      let total = List.fold_left (fun a d -> a + d.Decode.len) 0 ds in
      total = Bytes.length code
      && List.for_all2
           (fun i d -> d.Decode.insn = Some (normalize i))
           prog ds)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let run prog =
  let st = Interp.create () in
  Interp.run st (Encode.encode_all prog);
  st

let test_interp_arith () =
  let st =
    run
      [ Insn.Mov_ri (Reg.Rax, 10L); Insn.Add_ri (Reg.Rax, 32);
        Insn.Mov_rr (Reg.Rbx, Reg.Rax); Insn.Imul_rri (Reg.Rcx, Insn.R Reg.Rbx, 3) ]
  in
  Alcotest.(check int64) "rax" 42L (Interp.get st Reg.Rax);
  Alcotest.(check int64) "rcx" 126L (Interp.get st Reg.Rcx)

let test_interp_stack () =
  let st =
    run
      [ Insn.Mov_ri (Reg.Rax, 7L); Insn.Push Reg.Rax; Insn.Mov_ri (Reg.Rax, 0L);
        Insn.Pop Reg.Rbx ]
  in
  Alcotest.(check int64) "popped" 7L (Interp.get st Reg.Rbx)

let test_interp_mem () =
  let st =
    run
      [ Insn.Mov_ri (Reg.Rdi, 0x1000L); Insn.Mov_ri (Reg.Rax, 99L);
        Insn.Mov_store (Insn.mem ~base:Reg.Rdi ~disp:8 (), Reg.Rax);
        Insn.Mov_load (Reg.Rbx, Insn.mem ~base:Reg.Rdi ~disp:8 ()) ]
  in
  Alcotest.(check int64) "load back" 99L (Interp.get st Reg.Rbx)

let test_interp_jmp () =
  (* jmp over a mov: rax keeps its initial value. *)
  let skip = Encode.length (Insn.Mov_ri (Reg.Rax, 1L)) in
  let st = run [ Insn.Jmp_rel skip; Insn.Mov_ri (Reg.Rax, 1L); Insn.Nop ] in
  Alcotest.(check int64) "mov skipped" 0L (Interp.get st Reg.Rax)

let test_interp_call_ret () =
  (* call the function after the fallthrough block; function sets rbx. *)
  let body = [ Insn.Mov_ri (Reg.Rbx, 5L); Insn.Ret ] in
  let after_call = [ Insn.Mov_ri (Reg.Rcx, 1L); Insn.Jmp_rel 0 ] in
  let after_len =
    List.fold_left (fun a i -> a + Encode.length i) 0 after_call
  in
  let prog = (Insn.Call_rel after_len :: after_call) @ body in
  (* jmp 0 falls through to the body... rework: jump past body to end. *)
  let body_len = List.fold_left (fun a i -> a + Encode.length i) 0 body in
  let prog =
    match prog with
    | c :: rest ->
      c
      :: (List.map
            (function Insn.Jmp_rel 0 -> Insn.Jmp_rel body_len | x -> x)
            rest)
    | [] -> assert false
  in
  let st = run prog in
  Alcotest.(check int64) "function ran" 5L (Interp.get st Reg.Rbx);
  Alcotest.(check int64) "continuation ran" 1L (Interp.get st Reg.Rcx)

let test_interp_cmp_jcc () =
  (* Loop: rcx = 0; do rcx++ while rcx < 5 -> rcx = 5. *)
  let body = [ Insn.Inc Reg.Rcx; Insn.Cmp_ri (Reg.Rcx, 5) ] in
  let body_len = List.fold_left (fun a i -> a + Encode.length i) 0 body in
  let jcc = Insn.Jcc (Insn.L, -(body_len + 6)) in
  let st = run (body @ [ jcc ]) in
  Alcotest.(check int64) "loop ran to 5" 5L (Interp.get st Reg.Rcx)

let test_interp_flags_semantics () =
  let cases =
    [ (Insn.E, 3L, 3, true); (Insn.E, 3L, 4, false);
      (Insn.L, -1L, 1, true); (Insn.L, 2L, 1, false);
      (Insn.B, -1L, 1, false) (* unsigned: -1 is huge *);
      (Insn.G, 7L, 3, true); (Insn.Ae, 0L, 0, true) ]
  in
  List.iter
    (fun (cond, a, b, expect) ->
      (* set rax = a; cmp rax, b; jcc +skip; mov rbx, 1 *)
      let tail = [ Insn.Mov_ri (Reg.Rbx, 1L) ] in
      let skip = List.fold_left (fun acc i -> acc + Encode.length i) 0 tail in
      let st =
        run
          ([ Insn.Mov_ri (Reg.Rax, a); Insn.Cmp_ri (Reg.Rax, b);
             Insn.Jcc (cond, skip) ]
          @ tail)
      in
      (* If the jump was taken, rbx stays 0. *)
      Alcotest.(check int64)
        (Printf.sprintf "j%s after cmp %Ld,%d" (Insn.cond_name cond) a b)
        (if expect then 0L else 1L)
        (Interp.get st Reg.Rbx))
    cases

let test_interp_events () =
  let st = run [ Insn.Vmfunc; Insn.Syscall; Insn.Vmfunc ] in
  Alcotest.(check int) "vmfunc count" 2 (Interp.vmfunc_count st);
  Alcotest.(check (list bool)) "event order"
    [ true; false; true ]
    (List.rev_map (fun e -> e = Interp.Ev_vmfunc) st.Interp.events)

let test_interp_stuck_on_bad_ip () =
  let code = Encode.encode_all [ Insn.Jmp_rel 100 ] in
  let st = Interp.create () in
  try
    Interp.run st code;
    Alcotest.fail "expected Stuck"
  with Interp.Stuck _ -> ()

(* Straight-line programs (no control flow) must leave identical state
   when executed twice from the same start. Sanity for determinism. *)
let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpreter deterministic" ~count:300
    (QCheck.make Isa_gen.gen_straightline) (fun prog ->
      let code = Encode.encode_all prog in
      let a = Interp.create () and b = Interp.create () in
      (* Point memory operands somewhere harmless. *)
      List.iter
        (fun r -> Interp.set a r 0x2000L; Interp.set b r 0x2000L)
        [ Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx; Reg.Rsi; Reg.Rdi; Reg.R8; Reg.R9;
          Reg.R10; Reg.R11; Reg.R12; Reg.R13; Reg.R14; Reg.R15 ];
      (try Interp.run a code with Interp.Stuck _ -> ());
      (try Interp.run b code with Interp.Stuck _ -> ());
      Interp.equal_state a b)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "isa"
    [
      ( "encode",
        [
          Alcotest.test_case "simple opcodes" `Quick test_encode_simple;
          Alcotest.test_case "mov forms" `Quick test_encode_mov;
          Alcotest.test_case "jmp/call" `Quick test_encode_jmp_call;
          Alcotest.test_case "Table 3 shapes" `Quick test_encode_table3_shapes;
          Alcotest.test_case "field layout" `Quick test_layout_fields;
        ] );
      ( "decode",
        [
          Alcotest.test_case "vmfunc" `Quick test_decode_vmfunc;
          Alcotest.test_case "0f01 group not vmfunc" `Quick
            test_decode_0f01_group_not_vmfunc;
          Alcotest.test_case "unknown = 1 byte" `Quick test_decode_unknown_is_one_byte;
          Alcotest.test_case "boundary bookkeeping" `Quick test_decode_all_boundaries;
        ]
        @ qc
            [
              prop_encode_decode_roundtrip;
              prop_decode_layout_matches_encode;
              prop_decode_all_partitions;
            ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "stack" `Quick test_interp_stack;
          Alcotest.test_case "memory" `Quick test_interp_mem;
          Alcotest.test_case "jmp" `Quick test_interp_jmp;
          Alcotest.test_case "call/ret" `Quick test_interp_call_ret;
          Alcotest.test_case "cmp + jcc loop" `Quick test_interp_cmp_jcc;
          Alcotest.test_case "flag semantics" `Quick test_interp_flags_semantics;
          Alcotest.test_case "events" `Quick test_interp_events;
          Alcotest.test_case "stuck on bad ip" `Quick test_interp_stuck_on_bad_ip;
        ]
        @ qc [ prop_interp_deterministic ] );
    ]
