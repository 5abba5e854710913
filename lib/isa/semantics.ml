(** The one concrete semantics of the instruction subset.

    Effective addresses, push/pop, flag updates, condition evaluation and
    the per-instruction {!Make.step} are written here once, over a
    machine that supplies only its register file and flags, 64-bit
    memory access, and the effects of the four instructions that reach
    outside registers and memory. {!Interp} instantiates it over a flat
    sparse memory (the rewriter's equivalence oracle) and [Sky_core.Exec]
    over the simulated MMU, so the oracle's proof covers the semantics
    that executes the trampoline. *)

(* Condition flags, reduced to the predicates the supported Jcc
   conditions need: zero, signed-less, unsigned-less. *)
type flags = { mutable zf : bool; mutable slt : bool; mutable ult : bool }

let fresh_flags () = { zf = false; slt = false; ult = false }

module type MACHINE = sig
  type t

  (* The register file, indexed by [Reg.encoding]. *)
  val regs : t -> int64 array
  val flags : t -> flags
  val read64 : t -> int -> int64
  val write64 : t -> int -> int64 -> unit

  (* The privileged instructions' whole effect. CPUID's runs after the
     shared semantics has loaded the leaf values. *)
  val syscall : t -> unit
  val vmfunc : t -> unit
  val wrpkru : t -> unit
  val cpuid : t -> unit
end

module Make (M : MACHINE) = struct
  let get t r = (M.regs t).(Reg.encoding r)
  let set t r v = (M.regs t).(Reg.encoding r) <- v

  let ea t (m : Insn.mem) =
    let base = Option.fold ~none:0L ~some:(get t) m.Insn.base in
    let index =
      Option.fold ~none:0L
        ~some:(fun (r, s) -> Int64.mul (get t r) (Int64.of_int s))
        m.Insn.index
    in
    Int64.to_int (Int64.add (Int64.add base index) (Int64.of_int m.Insn.disp))

  let load t m = M.read64 t (ea t m)
  let operand t = function Insn.R r -> get t r | Insn.M m -> load t m

  let push t v =
    let rsp = Int64.sub (get t Reg.Rsp) 8L in
    set t Reg.Rsp rsp;
    M.write64 t (Int64.to_int rsp) v

  let pop t =
    let rsp = get t Reg.Rsp in
    let v = M.read64 t (Int64.to_int rsp) in
    set t Reg.Rsp (Int64.add rsp 8L);
    v

  (* Flags from a subtraction a - b (CMP semantics). *)
  let cmp t a b =
    let f = M.flags t in
    f.zf <- Int64.equal a b;
    f.slt <- Int64.compare a b < 0;
    f.ult <- Int64.unsigned_compare a b < 0

  (* Flags from a logic or arithmetic result: compared against zero, with
     the carry (unsigned-less) cleared. *)
  let test t v = cmp t v 0L

  (* Register-writing ALU operations set the flags from their result. *)
  let alu t d v =
    set t d v;
    test t v

  let cond_holds t c =
    let f = M.flags t in
    match c with
    | Insn.E -> f.zf
    | Insn.Ne -> not f.zf
    | Insn.L -> f.slt
    | Insn.Ge -> not f.slt
    | Insn.Le -> f.slt || f.zf
    | Insn.G -> not (f.slt || f.zf)
    | Insn.B -> f.ult
    | Insn.Ae -> not f.ult

  (* Executes [insn], whose encoding ends at address [next]; returns the
     address of the instruction that runs after it. *)
  let step t insn ~next =
    match insn with
    | Insn.Jmp_rel rel -> next + rel
    | Insn.Jcc (c, rel) -> if cond_holds t c then next + rel else next
    | Insn.Call_rel rel -> push t (Int64.of_int next); next + rel
    | Insn.Ret -> Int64.to_int (pop t)
    | Insn.Nop -> next
    | Insn.Push r -> push t (get t r); next
    | Insn.Pop r -> set t r (pop t); next
    | Insn.Mov_rr (d, s) -> set t d (get t s); next
    | Insn.Mov_ri (d, i) -> set t d i; next
    | Insn.Mov_load (d, m) -> set t d (load t m); next
    | Insn.Mov_store (m, s) -> M.write64 t (ea t m) (get t s); next
    | Insn.Add_rr (d, s) -> set t d (Int64.add (get t d) (get t s)); next
    | Insn.Add_ri (d, i) -> set t d (Int64.add (get t d) (Int64.of_int i)); next
    | Insn.Add_rm (d, m) -> set t d (Int64.add (get t d) (load t m)); next
    | Insn.Sub_ri (d, i) -> set t d (Int64.sub (get t d) (Int64.of_int i)); next
    | Insn.Imul_rri (d, s, i) ->
      set t d (Int64.mul (operand t s) (Int64.of_int i)); next
    | Insn.Imul_rm (d, s) -> set t d (Int64.mul (get t d) (operand t s)); next
    | Insn.Lea (d, m) -> set t d (Int64.of_int (ea t m)); next
    | Insn.Xor_rr (d, s) -> alu t d (Int64.logxor (get t d) (get t s)); next
    | Insn.And_rr (d, s) -> alu t d (Int64.logand (get t d) (get t s)); next
    | Insn.And_ri (d, i) -> alu t d (Int64.logand (get t d) (Int64.of_int i)); next
    | Insn.Or_rr (d, s) -> alu t d (Int64.logor (get t d) (get t s)); next
    | Insn.Or_ri (d, i) -> alu t d (Int64.logor (get t d) (Int64.of_int i)); next
    | Insn.Shl_ri (d, i) -> alu t d (Int64.shift_left (get t d) (i land 0x3f)); next
    | Insn.Shr_ri (d, i) ->
      alu t d (Int64.shift_right_logical (get t d) (i land 0x3f)); next
    | Insn.Inc d -> alu t d (Int64.add (get t d) 1L); next
    | Insn.Dec d -> alu t d (Int64.sub (get t d) 1L); next
    | Insn.Neg d -> alu t d (Int64.neg (get t d)); next
    | Insn.Cmp_rr (a, b) -> cmp t (get t a) (get t b); next
    | Insn.Cmp_ri (a, i) -> cmp t (get t a) (Int64.of_int i); next
    | Insn.Test_rr (a, b) -> test t (Int64.logand (get t a) (get t b)); next
    | Insn.Syscall -> M.syscall t; next
    | Insn.Vmfunc -> M.vmfunc t; next
    | Insn.Wrpkru -> M.wrpkru t; next
    | Insn.Cpuid ->
      (* Deterministic leaf values. *)
      set t Reg.Rax 0x16L;
      set t Reg.Rbx 0x756e_6547L;
      set t Reg.Rcx 0x6c65_746eL;
      set t Reg.Rdx 0x4965_6e69L;
      M.cpuid t;
      next
end
