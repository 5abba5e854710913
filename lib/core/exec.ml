open Sky_isa
open Sky_ukernel

type stop = [ `Returned | `Syscall | `Fell_off ]

exception Exec_fault of string

type regs = int64 array

let return_sentinel = 0x0dead000

(* The machine {!Semantics} runs on: memory is the address space live on
   [core], reached through the vCPU's translation. *)
type machine = {
  vcpu : Sky_mmu.Vcpu.t;
  mem : Sky_mem.Phys_mem.t;
  core : int;
  regs : regs;
  flags : Semantics.flags;
  mutable syscalled : bool;
}

let get m r = m.regs.(Reg.encoding r)

module S = Semantics.Make (struct
  type t = machine

  let regs m = m.regs
  let flags m = m.flags
  let read64 m va = Sky_mmu.Translate.read_u64 m.vcpu m.mem ~va
  let write64 m va v = Sky_mmu.Translate.write_u64 m.vcpu m.mem ~va v
  let syscall m = m.syscalled <- true

  (* The real thing: EPTP switching with RAX = function, RCX = index,
     exactly as the trampoline encodes it. *)
  let vmfunc m =
    Sky_trace.Trace.instant ~core:m.core ~cat:"vmfunc" "exec.vmfunc";
    Sky_mmu.Vmfunc.execute m.vcpu
      ~func:(Int64.to_int (get m Reg.Rax))
      ~index:(Int64.to_int (get m Reg.Rcx))

  (* Hardware faults unless ECX = EDX = 0; the simulated machine does too,
     so a call gate with sloppy operand discipline dies here even if the
     static auditor was bypassed. *)
  let wrpkru m =
    if get m Reg.Rcx <> 0L || get m Reg.Rdx <> 0L then
      raise (Exec_fault "wrpkru with ECX/EDX nonzero");
    Sky_trace.Trace.instant ~core:m.core ~cat:"vmfunc" "exec.wrpkru";
    Sky_mmu.Wrpkru.execute m.vcpu
      ~pkru:(Int64.to_int (Int64.logand (get m Reg.Rax) 0xffff_ffffL))

  let cpuid _ = ()
end)

(* Decode at [ip] from a 16-byte window read through translation. If the
   window runs into a page that cannot be read, the instruction is decoded
   from the bytes before that page, and the page's fault is raised when
   they do not hold a whole instruction. Execute permission is then
   checked over every byte the instruction occupies. *)
let fetch m ip =
  let read len = Sky_mmu.Translate.read_bytes m.vcpu m.mem ~va:ip ~len in
  let in_page = 4096 - (ip land 0xfff) in
  let d =
    try Decode.decode_one (read 16) 0
    with Sky_mmu.Translate.Page_fault _ as fault when in_page < 16 ->
      let d = Decode.decode_one (read in_page) 0 in
      if Option.is_none d.Decode.insn then raise fault else d
  in
  Sky_mmu.Translate.touch m.vcpu m.mem Sky_mmu.Translate.fetch ~va:ip
    ~len:d.Decode.len;
  d

(* Steps before a run is abandoned as runaway. *)
let max_steps = 100_000

let run kernel ~core ~entry ?regs () =
  let vcpu = Kernel.vcpu kernel ~core in
  let mem = Kernel.mem kernel in
  Sky_mmu.Vcpu.set_mode vcpu Sky_mmu.Vcpu.User;
  let regs =
    match regs with
    | Some r -> Array.copy r
    | None ->
      (* A scratch stack in the live process with the sentinel on top. *)
      let proc =
        match kernel.Kernel.running.(core) with
        | Some p -> p
        | None -> raise (Exec_fault "no process running on this core")
      in
      let stack_va = Kernel.map_anon kernel proc 4096 in
      let r = Array.make 16 0L in
      let rsp = stack_va + 4096 - 8 in
      Sky_mmu.Translate.write_u64 vcpu mem ~va:rsp (Int64.of_int return_sentinel);
      r.(Reg.encoding Reg.Rsp) <- Int64.of_int rsp;
      r
  in
  let m =
    { vcpu; mem; core; regs; flags = Semantics.fresh_flags (); syscalled = false }
  in
  let rec go ip steps =
    if ip = return_sentinel then (`Returned, regs)
    else if steps > max_steps then raise (Exec_fault "step limit")
    else begin
      (* Fault site "exec.step": the machine dies mid-trampoline. *)
      if Sky_faults.Fault.is_enabled () then
        Sky_faults.Fault.inject ~core "exec.step";
      let d = fetch m ip in
      match d.Decode.insn with
      | None ->
        raise (Exec_fault (Printf.sprintf "undecodable instruction at %#x" ip))
      | Some insn ->
        let next = S.step m insn ~next:(ip + d.Decode.len) in
        if m.syscalled then (`Syscall, regs) else go next (steps + 1)
    end
  in
  go entry 0
