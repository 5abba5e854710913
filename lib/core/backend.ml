(** The isolation-backend axis: which hardware mechanism carries a
    mediated cross-domain call, and the one module that names it.

    SkyBridge's design point — VMFUNC EPTP switching — is one of three
    ways to give a client a controlled window into a server's domain:

    - [Vmfunc] — the paper's mechanism (§4). A crossing is one
      VMFUNC(0, idx) through the trampoline page: no kernel entry, no
      TLB flush (translations are tagged by EPTP+VPID). Security rests
      on the rewriter + gadget scan, the execute-only trampoline and
      binding EPTs that map only the granted windows. Revocation
      degenerates the EPTP slot to the client's own root, so a replayed
      VMFUNC lands back in the caller.
    - [Mpk] — ERIM-style protection keys. A WRPKRU call gate switches
      the PKRU view; all domains share one address space and security
      is static: no WRPKRU outside the gate (the binary scan), gates
      that zero ECX/EDX, and pairwise write-disjoint resting views
      ([flow.pkru-escape]). Revocation has nothing architectural to
      tear down: the elevated view exists only inside the gate.
    - [Syscall] — "syscall as a privilege": every crossing traps into a
      filtered kernel slowpath whose per-domain allowed-entry-point
      table ({!Sky_ukernel.Entry_filter}) is checked at trap time.
      Revocation removes the grant, so the next trap is denied.

    {!Subkernel} binds, revokes and crosses through [bind], [revoke],
    [enter] and [leave], and otherwise branches only on the facts below
    — the ones [skybench run matrix] prints, so the matrix reports what
    the code runs on.

    The process-wide [default] mirrors {!Sky_sim.Accel}'s kill switch:
    {!Subkernel.init} picks it up unless told otherwise, so every
    existing experiment runs unchanged under whichever backend the CLI
    selected. *)

open Sky_sim
open Sky_mmu
open Sky_ukernel

type kind = Vmfunc | Mpk | Syscall

let all = [ Vmfunc; Mpk; Syscall ]

let name = function
  | Vmfunc -> "vmfunc"
  | Mpk -> "mpk"
  | Syscall -> "syscall"

let of_string = function
  | "vmfunc" -> Some Vmfunc
  | "mpk" -> Some Mpk
  | "syscall" -> Some Syscall
  | _ -> None

let pp fmt k = Format.pp_print_string fmt (name k)

(* Atomic so parallel replicas spawned after the CLI sets the backend
   read it without a data race; it is configuration, written once per
   run before any domain is spawned. *)
let default = Atomic.make Vmfunc
let get_default () = Atomic.get default
let set_default k = Atomic.set default k

let with_default k f =
  let saved = Atomic.get default in
  Atomic.set default k;
  Fun.protect ~finally:(fun () -> Atomic.set default saved) f

(* ---- the facts the matrix reports ---- *)

let title = function
  | Vmfunc -> "VMFUNC EPTP-list switching through the trampoline (SkyBridge)"
  | Mpk -> "MPK protection keys with a WRPKRU call gate (ERIM-style)"
  | Syscall -> "Filtered-syscall kernel slowpath with a per-domain entry table"

(* Does a normal call enter the kernel? *)
let kernel_on_path = function Syscall -> true | Vmfunc | Mpk -> false

(* Does a crossing flush translations (an un-PCID'd CR3 write)? *)
let tlb_flush_on_switch = function Syscall -> true | Vmfunc | Mpk -> false

(* Do domains share one address space? Under MPK the isolation is the
   PKRU view, not the page tables. *)
let shared_address_space = function Mpk -> true | Vmfunc | Syscall -> false

(* The per-leg cost of the architectural switch itself (the rest of a
   crossing — save/restore, stack install — is mechanism-independent and
   charged by the trampoline). The syscall figure is the whole kernel
   round trip charged by the slowpath, not a single instruction. *)
let switch_cycles = function
  | Vmfunc -> Costs.vmfunc
  | Mpk -> Costs.wrpkru
  | Syscall ->
    Costs.syscall + Costs.swapgs + Costs.entry_filter_check + Costs.cr3_write
    + Costs.swapgs + Costs.sysret

let tramp_flavor = function
  | Vmfunc -> `Vmfunc
  | Mpk -> `Mpk
  | Syscall -> `Syscall

(* The call gate the trampoline page carries. *)
let gate_code = function
  | Vmfunc -> Trampoline.code ()
  | Mpk -> Trampoline.mpk_code ()
  | Syscall -> Trampoline.syscall_code ()

(* MPK: the protection key of the [n]th registered domain (from 1).
   With more domains than the 15 non-default hardware keys, keys are
   virtualized round-robin — domains sharing a key fall back to
   page-table separation, which Isoflow's pkru-escape check accounts
   for. The other mechanisms tag nothing (key 0). *)
let domain_key kind n =
  match kind with Mpk -> ((n - 1) mod 15) + 1 | Vmfunc | Syscall -> 0

(* MPK: the PKRU view a domain rests in — its own key plus the
   shared-buffer key 0. *)
let resting_view kind key =
  match kind with Mpk -> Pkru.allow_only [ 0; key ] | Vmfunc | Syscall -> 0

(* ---- bindings ---- *)

(* What a binding materializes as: a binding EPT (an EPTP-list slot
   candidate), the elevated PKRU view the call gate installs, or the
   granted kernel entry point (the grant itself lives in the kernel's
   {!Entry_filter}). *)
type mech =
  | Meptp of Ept.t
  | Mpkey of { view : int; sproc : Proc.t }
  | Mentry of int

(* Allocation-free: the call path asks this on every call. *)
let holds_slot = function Meptp _ -> true | Mpkey _ | Mentry _ -> false

let slot_ept = function
  | Meptp e -> e
  | Mpkey _ | Mentry _ -> invalid_arg "Backend.slot_ept: no EPTP slot"

(* [harden] write-protects the trampoline frame in a fresh binding EPT;
   [server_view] is the server domain's resting PKRU view, which is the
   elevated view the MPK gate installs for the handler's duration. *)
let bind kind root entry_filter ~harden ~client ~server ~server_id ~server_view
    =
  match kind with
  | Vmfunc ->
    let ept = Rootkernel.bind_ept root ~client ~server in
    harden ept;
    Meptp ept
  | Mpk -> Mpkey { view = server_view; sproc = server }
  | Syscall ->
    (* The trap-time filter matches the grant exactly; the gate page is
       the only blessed entry range. *)
    Entry_filter.allow entry_filter ~pid:client.Proc.pid ~server:server_id
      ~entry:Layout.trampoline_va;
    Mentry Layout.trampoline_va

(* The architectural half of revocation (the EPTP slot is the caller's
   bookkeeping): only the kernel's grant stands outside the binding. *)
let revoke entry_filter ~pid ~server_id = function
  | Mentry _ -> Entry_filter.revoke entry_filter ~pid ~server:server_id
  | Meptp _ | Mpkey _ -> ()

(* ---- the crossing ----

   [enter] switches the vCPU into the server's domain and records in a
   token what [leave] needs to switch back: the state that mechanism
   must restore. A token is mutable and reused, one per call frame, so
   a crossing allocates nothing. The VMFUNC legs are byte-for-byte the
   paper's EPTP switches (the cost-neutrality gate holds the pingpong
   budget to ±2%). *)
type token = {
  mutable ret_index : int;  (** VMFUNC: the EPTP index to return to *)
  mutable ret_pkru : int;  (** MPK: the client's PKRU view *)
  mutable ret_cr3 : int;  (** MPK and syscall: the client's translation *)
  mutable ret_pcid : int;
}

let token () = { ret_index = 0; ret_pkru = 0; ret_cr3 = 0; ret_pcid = 0 }

(* The entry filter refused the trap: the grant is gone. *)
exception Denied

(* [idx] is the binding's EPTP-list slot (unused by the other
   mechanisms); [server] is the server's process. *)
let enter kernel entry_filter ~core vcpu ~pid ~server_id ~server ~idx tok = function
  | Meptp _ ->
    tok.ret_index <- Vmcs.current_index (Vcpu.vmcs_exn vcpu);
    Vmfunc.execute vcpu ~func:0 ~index:idx
  | Mpkey { view; sproc } ->
    tok.ret_pkru <- vcpu.Vcpu.pkru;
    tok.ret_cr3 <- vcpu.Vcpu.cr3;
    tok.ret_pcid <- vcpu.Vcpu.pcid;
    (* The architectural switch is the WRPKRU alone: no EPTP change, no
       CR3 write, no flush. The CR3/PCID assignment below is the
       single-address-space emulation — under MPK client and server
       share one address space, which this machine models by viewing
       the server's page tables uncharged. Giving the borrowed view the
       server's own PCID tag keeps the TLB sound without a flush: the
       client's untagged entries stay filed under its own ASID. *)
    Wrpkru.execute vcpu ~pkru:view;
    vcpu.Vcpu.cr3 <- Proc.cr3 sproc;
    vcpu.Vcpu.pcid <- sproc.Proc.pid
  | Mentry entry ->
    tok.ret_cr3 <- vcpu.Vcpu.cr3;
    tok.ret_pcid <- vcpu.Vcpu.pcid;
    (* The filtered kernel slowpath: trap, check the grant table before
       anything else, then a full (flushing) CR3 switch into the
       server. A missing grant is denied at the cheapest point. *)
    Kernel.kernel_entry kernel ~core;
    Cpu.charge (Kernel.cpu kernel ~core) Costs.entry_filter_check;
    if not (Entry_filter.check entry_filter ~pid ~server:server_id ~entry)
    then begin
      Kernel.kernel_exit kernel ~core;
      raise Denied
    end;
    Vcpu.write_cr3 vcpu ~cr3:(Proc.cr3 server) ~pcid:server.Proc.pid;
    Kernel.kernel_exit kernel ~core

(* [mech] is the binding [enter] crossed through. *)
let leave kernel ~core vcpu tok = function
  | Meptp _ -> Vmfunc.execute vcpu ~func:0 ~index:tok.ret_index
  | Mpkey _ ->
    Wrpkru.execute vcpu ~pkru:tok.ret_pkru;
    vcpu.Vcpu.cr3 <- tok.ret_cr3;
    vcpu.Vcpu.pcid <- tok.ret_pcid
  | Mentry _ ->
    (* Returning is a kernel round trip too: trap, validate the return
       frame, switch back to the client's translation. *)
    Kernel.kernel_entry kernel ~core;
    Cpu.charge (Kernel.cpu kernel ~core) Costs.entry_filter_check;
    Vcpu.write_cr3 vcpu ~cr3:tok.ret_cr3 ~pcid:tok.ret_pcid;
    Kernel.kernel_exit kernel ~core
