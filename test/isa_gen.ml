(* Random instructions and straight-line programs of the x86-64 subset,
   shared by the ISA tests and the differential test of the two machines
   that run the one instruction semantics. *)

open Sky_isa

(* Generator for random (valid) instructions. Avoids RSP/RBP bases going
   through the stack and keeps displacements/immediates in int32. *)
let gen_reg =
  QCheck.Gen.oneofl
    [ Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx; Reg.Rsi; Reg.Rdi; Reg.R8; Reg.R9;
      Reg.R10; Reg.R11; Reg.R12; Reg.R13; Reg.R14; Reg.R15 ]

let gen_mem =
  let open QCheck.Gen in
  let* base = opt gen_reg in
  let* index =
    opt (pair (oneofl [ Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx; Reg.Rsi; Reg.Rdi;
                        Reg.R8; Reg.R13 ])
           (oneofl [ 1; 2; 4; 8 ]))
  in
  let* disp = int_range (-0x100000) 0x100000 in
  (* base=None ∧ index=None with nonzero disp is fine; keep as-is. *)
  return { Insn.base; index; disp }

let gen_insn =
  let open QCheck.Gen in
  frequency
    [
      (1, return Insn.Nop);
      (1, return Insn.Ret);
      (1, return Insn.Syscall);
      (1, return Insn.Vmfunc);
      (1, return Insn.Cpuid);
      (2, map (fun r -> Insn.Push r) gen_reg);
      (2, map (fun r -> Insn.Pop r) gen_reg);
      (3, map2 (fun a b -> Insn.Mov_rr (a, b)) gen_reg gen_reg);
      (3, map2 (fun r i -> Insn.Mov_ri (r, Int64.of_int i)) gen_reg (int_range (-0x7fffffff) 0x7fffffff));
      (1, map2 (fun r i -> Insn.Mov_ri (r, i)) gen_reg (map Int64.of_int int));
      (3, map2 (fun r m -> Insn.Mov_load (r, m)) gen_reg gen_mem);
      (3, map2 (fun m r -> Insn.Mov_store (m, r)) gen_mem gen_reg);
      (3, map2 (fun a b -> Insn.Add_rr (a, b)) gen_reg gen_reg);
      (3, map2 (fun r i -> Insn.Add_ri (r, i)) gen_reg (int_range (-0x7fffffff) 0x7fffffff));
      (3, map2 (fun r i -> Insn.Sub_ri (r, i)) gen_reg (int_range (-0x7fffffff) 0x7fffffff));
      (3, map2 (fun r m -> Insn.Add_rm (r, m)) gen_reg gen_mem);
      (3, map2 (fun a b -> Insn.Xor_rr (a, b)) gen_reg gen_reg);
      (2, map3 (fun d s i -> Insn.Imul_rri (d, Insn.R s, i)) gen_reg gen_reg (int_range (-1000) 1000));
      (2, map3 (fun d m i -> Insn.Imul_rri (d, Insn.M m, i)) gen_reg gen_mem (int_range (-1000) 1000));
      (2, map2 (fun d s -> Insn.Imul_rm (d, Insn.R s)) gen_reg gen_reg);
      (2, map2 (fun d m -> Insn.Imul_rm (d, Insn.M m)) gen_reg gen_mem);
      (3, map2 (fun r m -> Insn.Lea (r, m)) gen_reg gen_mem);
      (1, map (fun r -> Insn.Jmp_rel r) (int_range 0 64));
      (1, map (fun r -> Insn.Call_rel r) (int_range 0 64));
      (3, map2 (fun a b -> Insn.And_rr (a, b)) gen_reg gen_reg);
      (3, map2 (fun r i -> Insn.And_ri (r, i)) gen_reg (int_range (-0x7fffffff) 0x7fffffff));
      (3, map2 (fun a b -> Insn.Or_rr (a, b)) gen_reg gen_reg);
      (3, map2 (fun r i -> Insn.Or_ri (r, i)) gen_reg (int_range (-0x7fffffff) 0x7fffffff));
      (3, map2 (fun a b -> Insn.Cmp_rr (a, b)) gen_reg gen_reg);
      (3, map2 (fun r i -> Insn.Cmp_ri (r, i)) gen_reg (int_range (-0x7fffffff) 0x7fffffff));
      (2, map2 (fun a b -> Insn.Test_rr (a, b)) gen_reg gen_reg);
      (2, map2 (fun r i -> Insn.Shl_ri (r, i)) gen_reg (int_range 0 63));
      (2, map2 (fun r i -> Insn.Shr_ri (r, i)) gen_reg (int_range 0 63));
      (1, map (fun r -> Insn.Inc r) gen_reg);
      (1, map (fun r -> Insn.Dec r) gen_reg);
      (1, map (fun r -> Insn.Neg r) gen_reg);
      ( 1,
        map2
          (fun c r -> Insn.Jcc (c, r))
          (oneofl [ Insn.E; Insn.Ne; Insn.L; Insn.Ge; Insn.Le; Insn.G; Insn.B; Insn.Ae ])
          (int_range 0 64) );
    ]

(* Straight-line programs: control transfers become NOPs and POPs become
   PUSHes, so the stack never underflows. *)
let gen_straightline =
  QCheck.Gen.(
    list_size (int_range 1 20)
      (gen_insn
      |> map (function
           | Insn.Jmp_rel _ | Insn.Call_rel _ | Insn.Ret | Insn.Jcc _ -> Insn.Nop
           | Insn.Pop r -> Insn.Push r (* keep stack non-underflowing *)
           | x -> x)))

