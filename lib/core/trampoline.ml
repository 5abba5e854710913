(** The SkyBridge trampoline (§4.4): a real x86-64 code page mapped by the
    Subkernel into every registered process at {!Sky_ukernel.Layout.trampoline_va}.

    The bytes matter: the trampoline contains the only two legal VMFUNC
    instructions in a process, and the binary rewriter's allowed-range
    logic and the W^X story are exercised against this page. Execution is
    modelled: each crossing charges the paper's measured 64 cycles of
    save/restore + stack-install work (§6.3) plus VMFUNC's 134, and pulls
    the trampoline's code lines through the i-cache. *)

open Sky_isa

(* Every gate saves the callee-saved registers and remembers the client
   stack in RBP, then restores both and returns. *)
let prologue =
  [
    Insn.Push Reg.Rbx;
    Insn.Push Reg.Rbp;
    Insn.Push Reg.R12;
    Insn.Push Reg.R13;
    Insn.Push Reg.R14;
    Insn.Push Reg.R15;
    Insn.Mov_rr (Reg.Rbp, Reg.Rsp) (* remember the client stack *);
  ]

let epilogue =
  [
    Insn.Mov_rr (Reg.Rsp, Reg.Rbp) (* restore the client stack *);
    Insn.Pop Reg.R15;
    Insn.Pop Reg.R14;
    Insn.Pop Reg.R13;
    Insn.Pop Reg.R12;
    Insn.Pop Reg.Rbp;
    Insn.Pop Reg.Rbx;
    Insn.Ret;
  ]

let gate body = prologue @ body @ epilogue

(* direct_server_call entry: load the EPTP index, VMFUNC into the server,
   install the server stack, call the registered handler via the server
   function list, VMFUNC back. *)
let insns =
  gate
    [
      Insn.Mov_ri (Reg.Rax, 0L) (* VM function 0: EPTP switching *);
      Insn.Mov_rr (Reg.Rcx, Reg.Rdi) (* EPTP index argument *);
      Insn.Vmfunc;
      Insn.Mov_rr (Reg.Rsp, Reg.Rsi) (* install the server stack *);
      Insn.Mov_load (Reg.R11, Insn.mem ~base:Reg.Rdx ()) (* function list *);
      Insn.Call_rel 0 (* call the registered handler (linked at runtime) *);
      Insn.Mov_ri (Reg.Rax, 0L);
      Insn.Mov_ri (Reg.Rcx, 0L) (* EPTP index 0: back to the caller *);
      Insn.Vmfunc;
    ]

let code () = Encode.encode_all insns

(* The MPK call gate (ERIM §3): same frame discipline, but the switch is
   a WRPKRU pair. The hardware faults unless ECX = EDX = 0, hence the
   XOR-zeroing immediately before each gate — the exact entry/exit
   sequence ERIM's binary inspection insists on. Arguments move over:
   RDI = server PKRU view, RSI = server stack, R8 = function list,
   R9 = the client's resting PKRU to restore on the way out (stashed in
   callee-saved RBX across the handler call). *)
let mpk_insns =
  gate
    [
      Insn.Mov_rr (Reg.Rbx, Reg.R9) (* client resting PKRU, survives the call *);
      Insn.Xor_rr (Reg.Rcx, Reg.Rcx);
      Insn.Xor_rr (Reg.Rdx, Reg.Rdx);
      Insn.Mov_rr (Reg.Rax, Reg.Rdi) (* server view *);
      Insn.Wrpkru;
      Insn.Mov_rr (Reg.Rsp, Reg.Rsi) (* install the server stack *);
      Insn.Mov_load (Reg.R11, Insn.mem ~base:Reg.R8 ()) (* function list *);
      Insn.Call_rel 0 (* call the registered handler (linked at runtime) *);
      Insn.Xor_rr (Reg.Rcx, Reg.Rcx);
      Insn.Xor_rr (Reg.Rdx, Reg.Rdx);
      Insn.Mov_rr (Reg.Rax, Reg.Rbx) (* restore the client view *);
      Insn.Wrpkru;
    ]

(* The filtered-syscall gate: the crossing is one SYSCALL; the kernel's
   trap path checks the entry filter, context-switches, runs the
   handler, and SYSRETs back. RDI carries the server id the kernel
   filters on. *)
let syscall_insns =
  gate
    [
      Insn.Mov_rr (Reg.Rax, Reg.Rdi) (* server id for the entry filter *);
      Insn.Syscall;
    ]

let mpk_code () = Encode.encode_all mpk_insns
let syscall_code () = Encode.encode_all syscall_insns

(* Offsets of the two legal VMFUNCs — the allowed ranges for the
   rewriter. *)
let vmfunc_ranges code =
  List.map (fun off -> (off, 3)) (Sky_rewriter.Scan.find_pattern code)

(* Offsets of the two legal WRPKRUs — the MPK scan's allowed ranges. *)
let wrpkru_ranges code =
  List.map (fun off -> (off, 3)) (Sky_rewriter.Scan.find_wrpkru code)

let crossing_cycles = Sky_sim.Costs.skybridge_crossing_other

let cross cpu ~text_pa =
  Sky_sim.Cpu.charge cpu crossing_cycles;
  (* The trampoline text itself flows through the i-cache. *)
  Sky_sim.Memsys.touch_range_state_only cpu Sky_sim.Memsys.Insn ~pa:text_pa
    ~len:128

(* The span closure is built only when tracing is on: every crossing
   runs this. *)
let charge_crossing cpu ~text_pa =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core:(Sky_sim.Cpu.id cpu) ~cat:"other"
      "trampoline.crossing" (fun () -> cross cpu ~text_pa)
  else cross cpu ~text_pa
