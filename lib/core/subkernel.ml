open Sky_mem
open Sky_sim
open Sky_mmu
open Sky_ukernel
open Sky_kernels

module Fault = Sky_faults.Fault

exception Not_registered of { client_pid : int; server_id : int }
exception Bad_server_key of { server_id : int; presented : int64 }
exception Bad_client_return of { server_id : int }
exception Call_timeout of { server_id : int; elapsed : int }
exception Server_crashed of { server_id : int }
exception Binding_revoked of { server_id : int }
exception Wx_violation of { pid : int; va : int }

exception Audit_failed of Sky_analysis.Report.violation list

type call_error =
  | Timeout of { server_id : int; elapsed : int }
  | Crashed of { server_id : int }
  | Revoked of { server_id : int }

let buffer_size = 8192
let key_table_slots = 64
let security_ring_capacity = 256
let default_watchdog = 1_000_000
let hang_cycles = 1_500_000

type server = {
  server_id : int;
  sproc : Proc.t;
  handler : Ipc.handler;
  connection_count : int;
  stack_vas : int array;
  key_table_pa : int;  (** backing frame of the calling-key table page *)
  deps : int list;
}

(* What a binding materializes as, per isolation backend: the VMFUNC
   backend builds a binding EPT (an EPTP-list slot candidate); the MPK
   backend precomputes the elevated PKRU view the call gate installs;
   the filtered-syscall backend records the granted kernel entry point
   (the grant itself lives in the kernel's {!Entry_filter}). *)
type mech =
  | Meptp of Ept.t
  | Mpkey of { view : int; sproc : Proc.t }
  | Mentry of int

type binding = {
  b_server_id : int;
  server_key : int64;
  buffer_vas : int array;  (** one per server connection/stack *)
  buffer_pas : int array;  (** backing frames, for re-sharing on rebind *)
  mech : mech;
  mutable last_use : int;  (** for EPTP-list LRU eviction *)
}

(* Only the VMFUNC backend ever puts a binding in an EPTP list, so the
   installed list is Meptp-only by construction. *)
let binding_ept_exn b =
  match b.mech with
  | Meptp e -> e
  | Mpkey _ | Mentry _ -> invalid_arg "Subkernel: binding has no EPT"

type pstate = {
  proc : Proc.t;
  own_ept : Ept.t;
  trampoline_text_pa : int;
  save_area_pa : int;  (** trampoline save area: callee-saved regs, per call *)
  regs : int64 array;  (** modelled register file (16 GPRs, §7 recovery) *)
  mutable bindings : binding list;
  mutable installed : binding list;  (** subset currently in the EPTP list *)
  mutable revoked : int list;  (** server ids whose binding was revoked *)
  mutable p_evictions : int;  (** EPTP-slot LRU evictions in this process *)
  pkey : int;  (** MPK: the protection key tagging this domain (0 = none) *)
  pkru_view : int;  (** MPK: resting PKRU view installed when scheduled *)
}

type t = {
  kernel : Kernel.t;
  root : Rootkernel.t;
  rng : Rng.t;
  backend : Backend.kind;  (** the isolation mechanism carrying crossings *)
  entry_filter : Entry_filter.t;
      (** the filtered-syscall backend's per-domain grant table *)
  mutable next_pkey : int;  (** MPK key allocator (virtualized mod 15) *)
  mutable servers : server list;
  pstates : (int, pstate) Hashtbl.t;
  mutable next_server_id : int;
  mutable next_buffer_va : int;
  max_eptp : int;
  max_bindings : int;  (** global fast-path binding budget *)
  mutable live_bindings : int;
  mutable slot_evictions : int;
      (** bindings retired to reclaim a fast-path slot — the victims
          degrade to slowpath IPC, they are not failed *)
  stats : Breakdown.t;
  mutable calls : int;
  mutable evictions : int;
  sec_buf : string array;  (** bounded security-event ring *)
  mutable sec_next : int;
  mutable sec_count : int;
  mutable sec_dropped : int;
  active_client : pstate option array;  (** per core: live direct call *)
  call_stack : (int * int) list array;
      (** per core: (server_id, in-server since cycle), innermost first *)
  mutable dead_servers : int list;
  mutable orphans : (int * int) list;  (** (client pid, server_id) to rebind *)
  fallback_ipc : Ipc.t;  (** kernel-mediated slowpath for revoked bindings *)
  fallback_eps : (int, Ipc.endpoint) Hashtbl.t;
  mutable degraded_calls : int;
  mutable forced_returns : int;
  mutable restarts : int;
  trampoline_frame : int;  (** one shared physical frame for the code page *)
  trampoline_bytes : bytes;
  mutable binding_hooks : (server_id:int -> unit) list;
      (** observers of binding-set changes (the mesh name-service cache) *)
}

let log_src = Logs.Src.create "skybridge.subkernel" ~doc:"SkyBridge Subkernel"

module Log = (val Logs.src_log log_src : Logs.LOG)

let rootkernel t = t.root
let kernel t = t.kernel
let backend t = t.backend
let entry_filter t = t.entry_filter
let stats t = t.stats
let calls t = t.calls
let evictions t = t.evictions
let slot_evictions t = t.slot_evictions
let live_bindings t = t.live_bindings
let trampoline_code t = t.trampoline_bytes
let trampoline_va = Layout.trampoline_va
let key_table_va = Layout.identity_page_va + 4096

(* Bounded ring: fault storms generate thousands of events; keep the
   newest [security_ring_capacity] and count the overflow. *)
let security t msg =
  Log.warn (fun m -> m "security: %s" msg);
  let cap = Array.length t.sec_buf in
  t.sec_buf.(t.sec_next) <- msg;
  t.sec_next <- (t.sec_next + 1) mod cap;
  if t.sec_count < cap then t.sec_count <- t.sec_count + 1
  else t.sec_dropped <- t.sec_dropped + 1

(* Newest-first, like the unbounded list this replaces. *)
let security_events t =
  let cap = Array.length t.sec_buf in
  List.init t.sec_count (fun i -> t.sec_buf.((t.sec_next - 1 - i + (2 * cap)) mod cap))

let security_events_dropped t = t.sec_dropped
let degraded_calls t = t.degraded_calls
let forced_returns t = t.forced_returns
let restarts t = t.restarts
let dead_servers t = t.dead_servers

let call_state t ~core =
  match t.call_stack.(core) with [] -> None | frame :: _ -> Some frame

let pstate_opt t proc = Hashtbl.find_opt t.pstates proc.Proc.pid

let process_evictions t proc =
  match pstate_opt t proc with Some ps -> ps.p_evictions | None -> 0

(* Server ids currently occupying EPTP-list slots for [proc] (revoked
   slots degenerate to the process's own EPT and are skipped). *)
let installed_servers t proc =
  match pstate_opt t proc with
  | Some ps ->
    List.filter_map
      (fun b -> if b.b_server_id >= 0 then Some b.b_server_id else None)
      ps.installed
  | None -> []

let on_binding_change t f = t.binding_hooks <- f :: t.binding_hooks

let fire_binding_change t ~server_id =
  List.iter (fun f -> f ~server_id) t.binding_hooks

(* Every live direct binding, as (client pid, server id) pairs in a
   deterministic order — the raw material for the mesh auditor's
   "no binding outlives its capability" check. *)
let bindings t =
  Hashtbl.fold
    (fun pid ps acc ->
      List.fold_left (fun acc b -> (pid, b.b_server_id) :: acc) acc ps.bindings)
    t.pstates []
  |> List.sort compare

let eptp_list_of ps =
  Ept.root_pa ps.own_ept
  :: List.map (fun b -> Ept.root_pa (binding_ept_exn b)) ps.installed

(* Install the EPTP list for [proc] on [core] — called from the kernel's
   context-switch hook. Only processes registered into SkyBridge carry a
   list; switching between unregistered processes keeps the base list
   installed and costs no VM exit (Table 5). Under the MPK backend the
   scheduled process additionally gets its resting PKRU view. *)
let install_for t ~core proc =
  (match (t.backend, pstate_opt t proc) with
  | Backend.Mpk, Some ps ->
    (Kernel.vcpu t.kernel ~core).Vcpu.pkru <- ps.pkru_view
  | _ -> ());
  match pstate_opt t proc with
  | Some ps -> Rootkernel.install_eptp_list t.root ~core (eptp_list_of ps)
  | None ->
    let vmcs = t.root.Rootkernel.vmcses.(core) in
    let base = Ept.root_pa t.root.Rootkernel.base_ept in
    if Vmcs.eptp_at vmcs ~index:0 <> base || Vmcs.current_index vmcs <> 0 then
      Rootkernel.install_eptp_list t.root ~core [ base ]

let init ?backend ?(vpid = true) ?(huge_ept = true)
    ?(max_eptp = Vmcs.eptp_list_size) ?(max_bindings = max_int)
    ?(seed = 0x5b1d) kernel =
  if max_bindings < 1 then invalid_arg "Subkernel.init: max_bindings";
  let backend =
    match backend with Some b -> b | None -> Backend.get_default ()
  in
  let root = Rootkernel.boot ~vpid ~huge_ept kernel in
  let trampoline_bytes = Trampoline.code_for backend in
  let trampoline_frame = Frame_alloc.alloc_frame (Kernel.alloc kernel) in
  Phys_mem.write_bytes (Kernel.mem kernel) trampoline_frame trampoline_bytes;
  let t =
    {
      kernel;
      root;
      rng = Rng.create ~seed;
      backend;
      entry_filter = Entry_filter.create ();
      next_pkey = 1;
      servers = [];
      pstates = Hashtbl.create 16;
      next_server_id = 1;
      next_buffer_va = Layout.skybridge_buffer_va;
      max_eptp;
      max_bindings;
      live_bindings = 0;
      slot_evictions = 0;
      stats = Breakdown.create ();
      calls = 0;
      evictions = 0;
      sec_buf = Array.make security_ring_capacity "";
      sec_next = 0;
      sec_count = 0;
      sec_dropped = 0;
      active_client = Array.make (Machine.n_cores kernel.Kernel.machine) None;
      call_stack = Array.make (Machine.n_cores kernel.Kernel.machine) [];
      dead_servers = [];
      orphans = [];
      fallback_ipc = Ipc.create kernel;
      fallback_eps = Hashtbl.create 8;
      degraded_calls = 0;
      forced_returns = 0;
      restarts = 0;
      trampoline_frame;
      trampoline_bytes;
      binding_hooks = [];
    }
  in
  kernel.Kernel.on_context_switch <-
    (fun k ~core proc ->
      ignore k;
      install_for t ~core proc)
    :: kernel.Kernel.on_context_switch;
  t

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

(* Scan and rewrite every executable region of the process (§5). Each
   region's snippet page is laid out consecutively from 0x1000 so
   multi-section binaries get disjoint rewrite pages. *)
let rewrite_process t proc =
  let next_page_va = ref Layout.rewrite_page_va in
  List.iter
    (fun (va, code) ->
      let r =
        Sky_rewriter.Rewrite.rewrite ~code_va:va ~rewrite_page_va:!next_page_va
          code
      in
      if r.Sky_rewriter.Rewrite.patched > 0 then begin
        Kernel.write_code t.kernel proc ~va r.Sky_rewriter.Rewrite.code;
        let page = r.Sky_rewriter.Rewrite.rewrite_page in
        if Bytes.length page > 0 then begin
          let rw_va =
            Kernel.map_anon t.kernel proc ~va:!next_page_va ~flags:Pte.urx
              (Bytes.length page)
          in
          Kernel.write_code t.kernel proc ~va:rw_va page;
          (* The snippet page is executable code: record it so audits and
             W^X flips cover it like any other code region. *)
          if not (List.mem_assoc rw_va proc.Proc.code) then
            proc.Proc.code <- (rw_va, Bytes.copy page) :: proc.Proc.code;
          next_page_va :=
            !next_page_va + ((Bytes.length page + 4095) land lnot 4095)
        end
      end)
    (Kernel.proc_code_bytes t.kernel proc)

let trampoline_frame t = t.trampoline_frame

let gadget_images t proc =
  List.map
    (fun (va, code) ->
      Sky_analysis.Gadget.image
        ~name:(Printf.sprintf "%s[%#x]" proc.Proc.name va)
        ~va code)
    (Kernel.proc_code_bytes t.kernel proc)

(* Mandatory post-pass at registration: independently prove the rewrite
   result before the process gains a trampoline mapping. A process whose
   executable pages cannot be verified must not join SkyBridge. Under
   the MPK backend the same images must additionally prove free of
   WRPKRU occurrences (ERIM's inspection requirement): a stray
   [0F 01 EF] would let the domain rewrite its own PKRU. *)
let audit_registration t proc =
  let images = gadget_images t proc in
  let vs = List.concat_map Sky_analysis.Gadget.audit images in
  let vs =
    if t.backend = Backend.Mpk then
      vs @ List.concat_map Sky_analysis.Gadget.audit_wrpkru images
    else vs
  in
  if vs <> [] then begin
    List.iter (fun v -> security t (Sky_analysis.Report.to_string v)) vs;
    raise (Audit_failed vs)
  end

(* The trampoline frame's permissions in a process/binding EPT (EPT
   reading: bit 1 write, bit 2 execute): executable, never writable — the
   base EPT's identity RWX huge page would otherwise let a process forge
   the only legal VMFUNC-bearing page. *)
let ept_trampoline_flags =
  { Pte.present = true; writable = false; user = true; huge = false; nx = false }

let harden_trampoline_ept t ept =
  Ept.map_4k_flags ept ~mem:(Kernel.mem t.kernel) ~alloc:(Kernel.alloc t.kernel)
    ~gpa:t.trampoline_frame ~hpa:t.trampoline_frame ~flags:ept_trampoline_flags

let ensure_pstate t proc =
  match pstate_opt t proc with
  | Some ps -> ps
  | None ->
    rewrite_process t proc;
    audit_registration t proc;
    (* Map the shared trampoline page (read-execute). *)
    Kernel.map_frames t.kernel proc ~va:Layout.trampoline_va
      ~pa:t.trampoline_frame ~len:4096 ~flags:Pte.urx;
    let own_ept = Rootkernel.new_process_ept t.root proc in
    harden_trampoline_ept t own_ept;
    (* MPK: hand the domain a protection key and its resting view (own
       key + the shared-buffer key 0). With more domains than the 15
       non-default hardware keys, keys are virtualized round-robin —
       domains sharing a key fall back to page-table separation, which
       the Isoflow pkru-escape check accounts for. *)
    let pkey =
      match t.backend with
      | Backend.Mpk ->
        let k = ((t.next_pkey - 1) mod 15) + 1 in
        t.next_pkey <- t.next_pkey + 1;
        k
      | Backend.Vmfunc | Backend.Syscall -> 0
    in
    let ps =
      {
        proc;
        own_ept;
        trampoline_text_pa = t.trampoline_frame;
        save_area_pa = Frame_alloc.alloc_frame (Kernel.alloc t.kernel);
        regs =
          Array.init 16 (fun i -> Int64.of_int ((proc.Proc.pid * 0x100) lor i));
        bindings = [];
        installed = [];
        revoked = [];
        p_evictions = 0;
        pkey;
        pkru_view =
          (if t.backend = Backend.Mpk then Pkru.allow_only [ 0; pkey ] else 0);
      }
    in
    Hashtbl.replace t.pstates proc.Proc.pid ps;
    ps

let thread_regs t proc =
  match pstate_opt t proc with
  | Some ps -> ps.regs
  | None -> invalid_arg "Subkernel.thread_regs: process not registered"

(* ------------------------------------------------------------------ *)
(* Trampoline save area (§7 forced-return recovery)                    *)
(* ------------------------------------------------------------------ *)

(* The registers the trampoline prologue pushes (Trampoline.code): the
   SysV callee-saved set plus the client RSP. *)
let callee_saved =
  Sky_isa.Reg.[ Rbx; Rbp; Rsp; R12; R13; R14; R15 ]

let save_slot_bytes = 64

(* One save slot per (core, nesting depth). The Phys_mem accesses are
   uncharged: the paper's 64-cycle crossing constant already includes the
   trampoline's register save/restore work (see Trampoline). Every call
   saves, so the loop is a toplevel function, not a closure. *)
let rec save_regs mem ps pa = function
  | [] -> ()
  | r :: rest ->
    Phys_mem.write_u64 mem pa ps.regs.(Sky_isa.Reg.encoding r);
    save_regs mem ps (pa + 8) rest

let save_callee_saved t ps ~slot =
  save_regs (Kernel.mem t.kernel) ps
    (ps.save_area_pa + (slot * save_slot_bytes))
    callee_saved

let restore_callee_saved t ps ~slot =
  let mem = Kernel.mem t.kernel in
  let base = ps.save_area_pa + (slot * save_slot_bytes) in
  List.iteri
    (fun i r ->
      ps.regs.(Sky_isa.Reg.encoding r) <- Phys_mem.read_u64 mem (base + (i * 8)))
    callee_saved

(* Model the aborted server run having trashed the client's registers —
   what §7 recovery must undo. *)
let clobber_callee_saved ps =
  List.iteri
    (fun i r -> ps.regs.(Sky_isa.Reg.encoding r) <- Int64.of_int (0xDEAD0000 + i))
    callee_saved

(* Per-call lookups: toplevel loops, so a call allocates no closure or
   option to find its server or binding. *)
let rec server_in server_id = function
  | s :: rest -> if s.server_id = server_id then s else server_in server_id rest
  | [] -> invalid_arg (Printf.sprintf "SkyBridge: unknown server id %d" server_id)

let find_server t server_id = server_in server_id t.servers

(* Raises [Not_found] when [bindings] has none for [server_id]. *)
let rec binding_in server_id = function
  | b :: rest -> if b.b_server_id = server_id then b else binding_in server_id rest
  | [] -> raise Not_found

let server_stack_va t ~server_id ~conn =
  let srv = find_server t server_id in
  srv.stack_vas.(conn mod srv.connection_count)

let register_server t proc ?(connection_count = 8) ?(deps = []) handler =
  List.iter (fun d -> ignore (find_server t d)) deps;
  let _ps = ensure_pstate t proc in
  (* Fault site "server.<name>": the handler crashes at dispatch or hangs
     past the watchdog budget (§7 DoS). *)
  let site = "server." ^ proc.Proc.name in
  let handler ~core msg =
    (match Fault.check ~core site with
    | Some (Fault.Crash as kind) | Some (Fault.Drop as kind) ->
      raise (Fault.Injected { site; kind })
    | Some Fault.Hang -> Kernel.user_compute t.kernel ~core ~cycles:hang_cycles
    | Some (Fault.Revoke | Fault.Ept_fault) | None -> ());
    handler ~core msg
  in
  let server_id = t.next_server_id in
  t.next_server_id <- server_id + 1;
  (* Per-connection stacks in the server's address space. *)
  let stack_vas =
    Array.init connection_count (fun _ ->
        let va = Proc.bump_stack proc 16384 in
        ignore (Kernel.map_anon t.kernel proc ~va 16384);
        va + 16384)
  in
  (* Calling-key table: one page, entries of (pid, key). *)
  let key_table_pa = Frame_alloc.alloc_frame (Kernel.alloc t.kernel) in
  let table_va = Layout.identity_page_va + 4096 in
  Kernel.map_frames t.kernel proc ~va:table_va ~pa:key_table_pa ~len:4096
    ~flags:Pte.ur;
  t.servers <-
    { server_id; sproc = proc; handler; connection_count; stack_vas; key_table_pa; deps }
    :: t.servers;
  Log.info (fun m ->
      m "registered server %d (%s), %d connections, deps [%s]" server_id
        proc.Proc.name connection_count
        (String.concat ";" (List.map string_of_int deps)));
  server_id

let install_key t srv ~client_pid ~key =
  let mem = Kernel.mem t.kernel in
  let rec find_slot i =
    if i >= key_table_slots then invalid_arg "SkyBridge: calling-key table full"
    else if Phys_mem.read_u64 mem (srv.key_table_pa + (i * 16)) = 0L then i
    else find_slot (i + 1)
  in
  let slot = find_slot 0 in
  Phys_mem.write_u64 mem (srv.key_table_pa + (slot * 16)) (Int64.of_int client_pid);
  Phys_mem.write_u64 mem (srv.key_table_pa + (slot * 16) + 8) key

(* Check [key] against the server's table, charging the reads the
   receiver performs (§4.4). *)
let check_key t ~core srv key =
  let mem = Kernel.mem t.kernel in
  let cpu = Kernel.cpu t.kernel ~core in
  let rec go i =
    if i >= key_table_slots then false
    else begin
      Memsys.access cpu Memsys.Data (srv.key_table_pa + (i * 16));
      let pid = Phys_mem.read_u64 mem (srv.key_table_pa + (i * 16)) in
      if pid = 0L then false
      else if Phys_mem.read_u64 mem (srv.key_table_pa + (i * 16) + 8) = key then true
      else go (i + 1)
    end
  in
  go 0

(* Transitive dependency closure of a server, in call order. *)
let rec dep_closure t server_id =
  let srv = find_server t server_id in
  server_id
  :: List.concat_map (fun d -> dep_closure t d) srv.deps

let server_dep_closure t ~server_id = List.sort_uniq compare (dep_closure t server_id)

let fresh_key t =
  let k = Rng.next_int64 t.rng in
  if k = 0L then 1L else k

let bind_one t ps ~server_id ~key ~share_with =
  let srv = find_server t server_id in
  let mech =
    match t.backend with
    | Backend.Vmfunc ->
      let ept = Rootkernel.bind_ept t.root ~client:ps.proc ~server:srv.sproc in
      harden_trampoline_ept t ept;
      Meptp ept
    | Backend.Mpk ->
      (* The elevated view the call gate installs for the handler's
         duration: the server's key plus the shared-buffer key. *)
      let spk =
        match pstate_opt t srv.sproc with
        | Some sps -> sps.pkey
        | None -> invalid_arg "Subkernel.bind_one: server not registered"
      in
      Mpkey { view = Pkru.allow_only [ 0; spk ]; sproc = srv.sproc }
    | Backend.Syscall ->
      (* Grant the kernel entry point; the trap-time filter will match
         it exactly. The gate page is the only blessed entry range. *)
      Entry_filter.allow t.entry_filter ~pid:ps.proc.Proc.pid ~server:server_id
        ~entry:Layout.trampoline_va;
      Mentry Layout.trampoline_va
  in
  (* Shared buffers, one per server connection, mapped at the same VA in
     every address space of the call chain: the client, the target
     server, and any intermediate servers (which fill the buffer when
     making dependency calls on the client's behalf). *)
  let chain =
    List.sort_uniq
      (fun a b -> compare a.Proc.pid b.Proc.pid)
      (ps.proc :: srv.sproc :: share_with)
  in
  let buffer_pas = Array.make srv.connection_count 0 in
  let buffer_vas =
    Array.init srv.connection_count (fun i ->
        let va = t.next_buffer_va in
        t.next_buffer_va <- t.next_buffer_va + buffer_size;
        let pa =
          Frame_alloc.alloc_frames (Kernel.alloc t.kernel)
            ~count:(buffer_size / 4096)
        in
        buffer_pas.(i) <- pa;
        List.iter
          (fun proc ->
            Kernel.map_frames t.kernel proc ~va ~pa ~len:buffer_size
              ~flags:{ Pte.urw with Pte.nx = true })
          chain;
        va)
  in
  let b =
    { b_server_id = server_id; server_key = key; buffer_vas; buffer_pas; mech;
      last_use = 0 }
  in
  ps.bindings <- ps.bindings @ [ b ];
  t.live_bindings <- t.live_bindings + 1;
  (match mech with
  | Meptp _ ->
    if List.length ps.installed + 1 < t.max_eptp then
      ps.installed <- ps.installed @ [ b ]
  | Mpkey _ | Mentry _ -> ());
  b

(* The key a process uses to call [server_id]: its own binding's key. *)
let key_for t proc ~server_id =
  match pstate_opt t proc with
  | None -> None
  | Some ps ->
    List.find_opt (fun b -> b.b_server_id = server_id) ps.bindings
    |> Option.map (fun b -> b.server_key)

(* The raw registration; the public [register_client_to_server] below
   first enforces the global fast-path binding budget (it needs
   [revoke_binding], defined later). *)
let register_client_unbudgeted t proc ~server_id =
  let ps = ensure_pstate t proc in
  if List.exists (fun b -> b.b_server_id = server_id) ps.bindings then ()
  else begin
    let closure = dep_closure t server_id in
    (* Every process in the call chain shares the dependency buffers.
       Besides [server_id]'s own closure, keep any intermediate server
       this process already reaches that depends on [server_id]: a
       rebound dependency binding's buffers are read while executing
       under the intermediary's EPT (the CR3 remap makes the guest walk
       use the intermediary's page tables), so dropping it from the
       chain would page-fault the next nested call after a recovery. *)
    let intermediaries =
      List.filter_map
        (fun b ->
          if b.b_server_id <> server_id
             && List.mem server_id (dep_closure t b.b_server_id)
          then Some (find_server t b.b_server_id).sproc
          else None)
        ps.bindings
    in
    let chain_procs =
      List.map (fun sid -> (find_server t sid).sproc) closure @ intermediaries
    in
    (* Dependency bindings that survived a partial reap keep their old
       buffers: re-share those frames with the (possibly new) chain so a
       freshly rebound intermediary can still reach them. *)
    List.iter
      (fun b ->
        if b.b_server_id <> server_id && List.mem b.b_server_id closure then
          Array.iteri
            (fun i va ->
              List.iter
                (fun proc ->
                  Kernel.map_frames t.kernel proc ~va ~pa:b.buffer_pas.(i)
                    ~len:buffer_size
                    ~flags:{ Pte.urw with Pte.nx = true })
                (ps.proc :: chain_procs))
            b.buffer_vas)
      ps.bindings;
    List.iter
      (fun sid ->
        if not (List.exists (fun b -> b.b_server_id = sid) ps.bindings) then begin
          let srv = find_server t sid in
          (* The direct binding gets a fresh key; dependency bindings
             reuse the key of the server that actually calls them (the
             FS's key for the disk, not the client's). *)
          let key =
            if sid = server_id then begin
              let k = fresh_key t in
              install_key t srv ~client_pid:proc.Proc.pid ~key:k;
              k
            end
            else
              match
                List.fold_left
                  (fun acc s ->
                    match acc with
                    | Some _ -> acc
                    | None -> key_for t s.sproc ~server_id:sid)
                  None t.servers
              with
              | Some k -> k
              | None ->
                (* The intermediate server never registered to its dep —
                   register it now with its own key. *)
                let k = fresh_key t in
                install_key t srv ~client_pid:proc.Proc.pid ~key:k;
                k
          in
          ignore (bind_one t ps ~server_id:sid ~key ~share_with:chain_procs)
        end)
      closure;
    ps.revoked <- List.filter (fun sid -> not (List.mem sid closure)) ps.revoked;
    List.iter (fun sid -> fire_binding_change t ~server_id:sid) closure
  end

(* ------------------------------------------------------------------ *)
(* Revocation, reaping, restart (§7 recovery)                          *)
(* ------------------------------------------------------------------ *)

(* Remove (pid, key) from the server's calling-key table, compacting the
   remaining entries: lookups treat the first zero pid as end-of-table,
   so a hole would hide every later key. *)
let clear_key t srv ~client_pid ~key =
  let mem = Kernel.mem t.kernel in
  let live = ref [] in
  for i = key_table_slots - 1 downto 0 do
    let base = srv.key_table_pa + (i * 16) in
    let pid = Phys_mem.read_u64 mem base in
    let k = Phys_mem.read_u64 mem (base + 8) in
    if pid <> 0L && not (pid = Int64.of_int client_pid && k = key) then
      live := (pid, k) :: !live
  done;
  List.iteri
    (fun i (pid, k) ->
      let base = srv.key_table_pa + (i * 16) in
      Phys_mem.write_u64 mem base pid;
      Phys_mem.write_u64 mem (base + 8) k)
    !live;
  for i = List.length !live to key_table_slots - 1 do
    let base = srv.key_table_pa + (i * 16) in
    Phys_mem.write_u64 mem base 0L;
    Phys_mem.write_u64 mem (base + 8) 0L
  done

(* A revoked binding's EPTP slot degenerates to the process's own EPT
   root instead of being removed: in-flight nested frames hold slot
   indices into the installed list, which must therefore keep its
   positions stable. *)
let dummy_binding ps =
  {
    b_server_id = -1;
    server_key = 0L;
    buffer_vas = [||];
    buffer_pas = [||];
    mech = Meptp ps.own_ept;
    last_use = 0;
  }

(* Push the (changed) EPTP list to every core currently running the
   process, preserving the live EPTP index (the list rewrite must not
   switch address spaces under a running call). *)
let refresh_lists t ps =
  Array.iteri
    (fun core running ->
      match running with
      | Some p when p == ps.proc ->
        let vmcs = t.root.Rootkernel.vmcses.(core) in
        let saved = Vmcs.current_index vmcs in
        Rootkernel.install_eptp_list t.root ~core (eptp_list_of ps);
        vmcs.Vmcs.current_index <- saved
      | _ -> ())
    t.kernel.Kernel.running

let revoke_binding ?(orphan = true) t ~core proc ~server_id ~reason =
  match pstate_opt t proc with
  | None -> ()
  | Some ps -> (
    match List.find_opt (fun b -> b.b_server_id = server_id) ps.bindings with
    | None -> ()
    | Some b ->
      ps.bindings <- List.filter (fun x -> x != b) ps.bindings;
      t.live_bindings <- t.live_bindings - 1;
      (* Per-mechanism invalidation: the VMFUNC backend degenerates the
         EPTP slot in place (in-flight nested frames hold slot indices);
         the filtered-syscall backend erases the kernel grant, so the
         very next trap is denied; the MPK backend has nothing standing
         — the elevated view only ever exists inside the call gate and
         the binding's disappearance already unreaches it. *)
      (match b.mech with
      | Meptp _ ->
        ps.installed <-
          List.map (fun x -> if x == b then dummy_binding ps else x)
            ps.installed
      | Mentry _ ->
        Entry_filter.revoke t.entry_filter ~pid:proc.Proc.pid ~server:server_id
      | Mpkey _ -> ());
      if not (List.mem server_id ps.revoked) then
        ps.revoked <- server_id :: ps.revoked;
      (* [orphan = false] is the capability-revocation path: the teardown
         is permanent, so a later [restart_server] must NOT rebind it. *)
      if orphan && not (List.mem (proc.Proc.pid, server_id) t.orphans) then
        t.orphans <- (proc.Proc.pid, server_id) :: t.orphans;
      clear_key t (find_server t server_id) ~client_pid:proc.Proc.pid
        ~key:b.server_key;
      (* Unmap the binding's shared buffers from {e every} registered
         address space (client, server, intermediaries): a frame whose
         grant died must not stay writable anywhere, or the revocation
         leaves a cross-domain channel behind — exactly what Isoflow's
         [flow.shared-writable] flags. Buffer VAs are allocated
         monotonically so they are unique to this binding, and
         {!Page_table.unmap} is a no-op in spaces that never mapped
         them. The frames themselves stay allocated: surviving
         dependency bindings keep their own (distinct) buffers. *)
      let mem = Kernel.mem t.kernel in
      Hashtbl.iter
        (fun _ other ->
          Array.iter
            (fun va ->
              for page = 0 to (buffer_size / 4096) - 1 do
                Page_table.unmap other.proc.Proc.page_table ~mem
                  ~va:(va + (page * 4096))
              done)
            b.buffer_vas)
        t.pstates;
      refresh_lists t ps;
      security t
        (Printf.sprintf "revoked binding pid %d -> server %d: %s" proc.Proc.pid
           server_id reason);
      Sky_trace.Trace.instant ~core ~cat:"recovery" "recovery.revoke";
      fire_binding_change t ~server_id)

(* ---- global fast-path binding budget (tenant-scale slot recycling) ----

   With hundreds–thousands of short-lived tenant clients the bounded
   resource is not just each process's EPTP list but the Subkernel's
   total fast-path footprint (binding EPTs, shared buffers, calling-key
   slots). [max_bindings] caps the number of live bindings; when a new
   registration would exceed it, the least-recently-calling {e process}
   (excluding the one registering) has its whole fast-path presence
   retired — [revoke_binding ~orphan:false] per binding, so its future
   calls transparently degrade to the kernel-mediated slowpath (counted
   in [degraded_calls]) instead of failing. Recycled tenants that come
   back re-register and evict someone else: slots circulate by LRU. *)

(* Victim = the registered process whose most recent call through any of
   its bindings is oldest; ties break on pid so the choice (and thus the
   whole run) stays deterministic. *)
let slot_victim t ~except_pid =
  let best = ref None in
  Hashtbl.iter
    (fun pid ps ->
      if pid <> except_pid && ps.bindings <> [] then begin
        let recent =
          List.fold_left (fun a b -> Int.max a b.last_use) 0 ps.bindings
        in
        match !best with
        | Some (r, p, _) when (r, p) <= (recent, pid) -> ()
        | _ -> best := Some (recent, pid, ps)
      end)
    t.pstates;
  match !best with Some (_, _, ps) -> Some ps | None -> None

let enforce_binding_budget t ps ~incoming =
  let rec go () =
    if t.live_bindings + incoming > t.max_bindings then
      match slot_victim t ~except_pid:ps.proc.Proc.pid with
      | None -> ()  (* only the registering process holds bindings *)
      | Some victim ->
        let sids = List.map (fun b -> b.b_server_id) victim.bindings in
        List.iter
          (fun sid ->
            t.slot_evictions <- t.slot_evictions + 1;
            revoke_binding ~orphan:false t ~core:0 victim.proc ~server_id:sid
              ~reason:"fast-path binding budget: LRU slots recycled")
          sids;
        go ()
  in
  go ()

let register_client_to_server t proc ~server_id =
  (if t.max_bindings <> max_int then
     let ps = ensure_pstate t proc in
     if not (List.exists (fun b -> b.b_server_id = server_id) ps.bindings)
     then begin
       let closure = dep_closure t server_id |> List.sort_uniq compare in
       let incoming =
         List.length
           (List.filter
              (fun sid ->
                not (List.exists (fun b -> b.b_server_id = sid) ps.bindings))
              closure)
       in
       enforce_binding_budget t ps ~incoming
     end);
  register_client_unbudgeted t proc ~server_id

let server_dead t server_id = List.mem server_id t.dead_servers

(* A crashed server strands every connection bound to it: revoke them
   all (reaping), recording the orphans so a restart can rebind. *)
let mark_server_dead t ~core ~server_id =
  if not (server_dead t server_id) then begin
    t.dead_servers <- server_id :: t.dead_servers;
    security t
      (Printf.sprintf "server %d crashed; reaping orphaned connections"
         server_id);
    Sky_trace.Trace.instant ~core ~cat:"recovery" "recovery.reap";
    Hashtbl.fold (fun _ ps acc -> ps :: acc) t.pstates []
    |> List.sort (fun a b -> compare a.proc.Proc.pid b.proc.Proc.pid)
    |> List.iter (fun ps ->
           if List.exists (fun b -> b.b_server_id = server_id) ps.bindings then
             revoke_binding t ~core ps.proc ~server_id
               ~reason:"orphaned by server crash")
  end

(* Bring a crashed server back and re-establish every orphaned
   connection with fresh keys and binding EPTs. *)
let restart_server t ~server_id =
  if server_dead t server_id then begin
    t.dead_servers <- List.filter (fun s -> s <> server_id) t.dead_servers;
    t.restarts <- t.restarts + 1;
    let mine, rest = List.partition (fun (_, sid) -> sid = server_id) t.orphans in
    t.orphans <- rest;
    List.iter
      (fun (pid, sid) ->
        match Hashtbl.find_opt t.pstates pid with
        | None -> ()
        | Some ps ->
          ps.revoked <- List.filter (fun s -> s <> sid) ps.revoked;
          register_client_to_server t ps.proc ~server_id:sid)
      (List.sort compare mine);
    security t
      (Printf.sprintf "server %d restarted; %d connections rebound" server_id
         (List.length mine));
    Sky_trace.Trace.instant ~core:0 ~cat:"recovery" "recovery.restart"
  end

(* Re-establish a single revoked binding (fresh key, fresh EPT). *)
let rebind t proc ~server_id =
  match pstate_opt t proc with
  | None -> ()
  | Some ps ->
    ps.revoked <- List.filter (fun s -> s <> server_id) ps.revoked;
    t.orphans <-
      List.filter
        (fun (pid, sid) -> not (pid = proc.Proc.pid && sid = server_id))
        t.orphans;
    register_client_to_server t proc ~server_id

(* ------------------------------------------------------------------ *)
(* direct_server_call                                                  *)
(* ------------------------------------------------------------------ *)

let binding_index ps b =
  let rec go i = function
    | [] -> None
    | x :: rest -> if x == b then Some (i + 1) else go (i + 1) rest
  in
  go 0 ps.installed

(* EPTP-list LRU eviction (§10 future work): make sure [b] occupies a
   slot, evicting the least-recently-used binding when the list is
   full. Requires a Rootkernel VMCALL to rewrite the list. *)
let ensure_installed t ~core ps b =
  let vmcs = t.root.Rootkernel.vmcses.(core) in
  let refresh () =
    (* Rewriting the EPTP list mid-call must not disturb the currently
       installed EPTP (the hardware list update does not switch). *)
    let saved_index = Vmcs.current_index vmcs in
    Rootkernel.install_eptp_list t.root ~core (eptp_list_of ps);
    vmcs.Vmcs.current_index <- saved_index
  in
  match binding_index ps b with
  | Some idx ->
    (* The list in the VMCS may predate this binding (registered after
       the client was last scheduled): refresh it if stale. *)
    if Vmcs.eptp_at vmcs ~index:idx <> Ept.root_pa (binding_ept_exn b) then
      refresh ();
    idx
  | None ->
    let saved_index = Vmcs.current_index vmcs in
    let victim =
      List.fold_left
        (fun acc x -> match acc with
          | None -> Some x
          | Some v -> if x.last_use < v.last_use then Some x else acc)
        None ps.installed
    in
    (match victim with
    | Some v when List.length ps.installed + 1 >= t.max_eptp ->
      ps.installed <-
        List.map (fun x -> if x == v then b else x) ps.installed;
      t.evictions <- t.evictions + 1;
      ps.p_evictions <- ps.p_evictions + 1
    | _ -> ps.installed <- ps.installed @ [ b ]);
    Rootkernel.install_eptp_list t.root ~core (eptp_list_of ps);
    vmcs.Vmcs.current_index <- saved_index;
    (match binding_index ps b with Some i -> i | None -> assert false)

(* ---- the per-mechanism crossing ----

   [cross_enter] switches the vCPU into the server's domain and returns
   the token [cross_leave] needs to switch back; the pair is the only
   place the three mechanisms differ on the hot path. The VMFUNC legs
   are byte-for-byte the original EPTP switches (the cost-neutrality
   gate holds the pingpong budget to ±2%). *)
type cross_token =
  | Tindex of int  (** VMFUNC: the EPTP index to return to *)
  | Tpkru of { pkru : int; cr3 : int; pcid : int }  (** MPK: client state *)
  | Tcr3 of { cr3 : int; pcid : int }  (** syscall: client translation *)

let cross_enter t ~core vcpu ps b srv ~idx =
  match b.mech with
  | Meptp _ ->
    let idx = match idx with Some i -> i | None -> assert false in
    let return_index = Vmcs.current_index (Vcpu.vmcs_exn vcpu) in
    Vmfunc.execute vcpu ~func:0 ~index:idx;
    Tindex return_index
  | Mpkey { view; sproc } ->
    let token =
      Tpkru { pkru = vcpu.Vcpu.pkru; cr3 = vcpu.Vcpu.cr3; pcid = vcpu.Vcpu.pcid }
    in
    (* The architectural switch is the WRPKRU alone: no EPTP change, no
       CR3 write, no flush. The CR3/PCID assignment below is the
       single-address-space emulation — under MPK client and server
       share one address space, which this machine models by viewing
       the server's page tables uncharged. Giving the borrowed view the
       server's own PCID tag keeps the TLB sound without a flush: the
       client's untagged entries stay filed under its own ASID. *)
    Wrpkru.execute vcpu ~pkru:view;
    vcpu.Vcpu.cr3 <- Proc.cr3 sproc;
    vcpu.Vcpu.pcid <- sproc.Proc.pid;
    token
  | Mentry entry ->
    let token = Tcr3 { cr3 = vcpu.Vcpu.cr3; pcid = vcpu.Vcpu.pcid } in
    (* The filtered kernel slowpath: trap, check the grant table before
       anything else, then a full (flushing) CR3 switch into the
       server. A missing grant is denied at the cheapest point. *)
    Kernel.kernel_entry t.kernel ~core;
    Cpu.charge (Kernel.cpu t.kernel ~core) Costs.entry_filter_check;
    if
      not
        (Entry_filter.check t.entry_filter ~pid:ps.proc.Proc.pid
           ~server:b.b_server_id ~entry)
    then begin
      Kernel.kernel_exit t.kernel ~core;
      security t
        (Printf.sprintf "entry filter denied pid %d -> server %d"
           ps.proc.Proc.pid b.b_server_id);
      raise (Binding_revoked { server_id = b.b_server_id })
    end;
    Vcpu.write_cr3 vcpu ~cr3:(Proc.cr3 srv.sproc) ~pcid:srv.sproc.Proc.pid;
    Kernel.kernel_exit t.kernel ~core;
    token

let cross_leave t ~core vcpu token =
  match token with
  | Tindex return_index -> Vmfunc.execute vcpu ~func:0 ~index:return_index
  | Tpkru { pkru; cr3; pcid } ->
    Wrpkru.execute vcpu ~pkru;
    vcpu.Vcpu.cr3 <- cr3;
    vcpu.Vcpu.pcid <- pcid
  | Tcr3 { cr3; pcid } ->
    (* Returning is a kernel round trip too: trap, validate the return
       frame, switch back to the client's translation. *)
    Kernel.kernel_entry t.kernel ~core;
    Cpu.charge (Kernel.cpu t.kernel ~core) Costs.entry_filter_check;
    Vcpu.write_cr3 vcpu ~cr3 ~pcid;
    Kernel.kernel_exit t.kernel ~core

let guest_copy_out t ~core va data =
  Translate.write_bytes (Kernel.vcpu t.kernel ~core) (Kernel.mem t.kernel) ~va data

let guest_copy_in t ~core va len =
  Translate.read_bytes (Kernel.vcpu t.kernel ~core) (Kernel.mem t.kernel) ~va ~len

(* Graceful degradation: a connection whose binding was revoked falls
   back to the kernel-mediated slowpath transparently. The server's
   handler (fault site included) is registered into the fallback Ipc
   instance on first use. *)
let fallback_endpoint t srv =
  match Hashtbl.find_opt t.fallback_eps srv.server_id with
  | Some ep -> ep
  | None ->
    let ep = Ipc.register t.fallback_ipc srv.sproc srv.handler in
    Hashtbl.replace t.fallback_eps srv.server_id ep;
    ep

let slowpath_call t ~core ps ~server_id msg =
  let srv = find_server t server_id in
  let ep = fallback_endpoint t srv in
  Sky_trace.Trace.span ~core ~cat:"recovery" "recovery.slowpath" @@ fun () ->
  Fault.enter_scope ();
  match Ipc.call t.fallback_ipc ~core ~client:ps.proc ep msg with
  | reply ->
    Fault.leave_scope ();
    t.degraded_calls <- t.degraded_calls + 1;
    Ok reply
  | exception e ->
    Fault.leave_scope ();
    Kernel.context_switch t.kernel ~core ps.proc;
    (match e with
    | Fault.Injected _ ->
      mark_server_dead t ~core ~server_id;
      Error (Crashed { server_id })
    | Server_crashed { server_id = sid } -> Error (Crashed { server_id = sid })
    | Call_timeout { server_id = sid; elapsed } ->
      Error (Timeout { server_id = sid; elapsed })
    | e -> raise e)

(* Map an in-server exception to the typed error the client observes,
   performing the matching recovery action. [None] = a genuine bug, to
   be re-raised. *)
let classify_abort t ~core cpu ~start ps ~server_id e =
  match e with
  | Fault.Injected { kind = Fault.Ept_fault; _ }
  | Ept.Ept_violation _
  | Vmfunc.Invalid_vmfunc _ ->
    revoke_binding t ~core ps.proc ~server_id
      ~reason:"EPT fault during direct call";
    Some (Revoked { server_id })
  | Fault.Injected { kind = Fault.Drop; _ } ->
    Some (Timeout { server_id; elapsed = Cpu.cycles cpu - start })
  | Fault.Injected _ ->
    mark_server_dead t ~core ~server_id;
    Some (Crashed { server_id })
  | Server_crashed { server_id = sid } -> Some (Crashed { server_id = sid })
  | Binding_revoked { server_id = sid } -> Some (Revoked { server_id = sid })
  | Call_timeout { server_id = sid; elapsed } ->
    Some (Timeout { server_id = sid; elapsed })
  | _ -> None

let call_internal t ~core ~client ~server_id ?timeout ?attack msg =
  (* Fault site "subkernel.call": a revocation storm yanks the binding at
     call entry; top-level calls then degrade to the slowpath. *)
  (match Fault.check ~core "subkernel.call" with
  | Some Fault.Revoke ->
    let proc =
      match t.active_client.(core) with Some ps -> ps.proc | None -> client
    in
    revoke_binding t ~core proc ~server_id ~reason:"injected revocation storm"
  | _ -> ());
  let ps =
    (* Nested calls resolve against the root client's EPTP list, which
       carries the dependency EPTs (§4.2). *)
    match t.active_client.(core) with
    | Some ps -> ps
    | None -> (
      match pstate_opt t client with
      | Some ps -> ps
      | None -> raise (Not_registered { client_pid = client.Proc.pid; server_id }))
  in
  if server_dead t server_id then begin
    security t
      (Printf.sprintf "pid %d called dead server %d" ps.proc.Proc.pid server_id);
    Error (Crashed { server_id })
  end
  else
    match binding_in server_id ps.bindings with
    | exception Not_found when List.mem server_id ps.revoked ->
      if t.active_client.(core) = None then
        Result.map (fun r -> (r, `Slowpath)) (slowpath_call t ~core ps ~server_id msg)
      else
        (* A nested call cannot take the slowpath mid-direct-call (the
           kernel transfer would rewrite the live EPTP state under the
           outer frame): abort the whole call chain instead. *)
        raise (Binding_revoked { server_id })
    | exception Not_found ->
      security t
        (Printf.sprintf "pid %d attempted unbound call to server %d"
           ps.proc.Proc.pid server_id);
      raise (Not_registered { client_pid = ps.proc.Proc.pid; server_id })
    | b ->
      let srv = find_server t server_id in
      let cpu = Kernel.cpu t.kernel ~core in
      let vcpu = Kernel.vcpu t.kernel ~core in
      (* Make sure the root client is the running process (normally a
         no-op: the workload is already executing it). *)
      if t.active_client.(core) = None then
        Kernel.context_switch t.kernel ~core ps.proc;
      t.calls <- t.calls + 1;
      t.calls |> fun n -> b.last_use <- n;
      (* EPTP-slot residency is a VMFUNC-backend concern; prepared
         outside the measured crossing, as before the backend split. *)
      let idx =
        match b.mech with
        | Meptp _ -> Some (ensure_installed t ~core ps b)
        | Mpkey _ | Mentry _ -> None
      in
      let start = Cpu.cycles cpu in
      let walk0 = Pmu.read (Cpu.pmu cpu) Pmu.Walk_cycles in
      (* Roundtrip span: feeds the "skybridge.<kernel>.call" latency
         histogram; inner spans (vmfunc, copies, key check) refine the
         per-category attribution. *)
      let span_name =
        match t.kernel.Kernel.config.Config.variant with
        | Config.Sel4 -> "skybridge.sel4.call"
        | Config.Fiasco -> "skybridge.fiasco.call"
        | Config.Zircon -> "skybridge.zircon.call"
        | Config.Linux -> "skybridge.linux.call"
      in
      Sky_trace.Trace.span ~core ~cat:"ipc" span_name @@ fun () ->
      let conn = core mod srv.connection_count in
      let large = Bytes.length msg > Ipc.register_msg_limit in
      (* --- client side of the trampoline --- *)
      Trampoline.charge_crossing cpu ~text_pa:ps.trampoline_text_pa;
      (* Trampoline prologue: the callee-saved set goes to the per-call
         save slot, from which a forced return can restore it (§7). *)
      let depth = List.length t.call_stack.(core) in
      let slot = ((core * 8) + depth) land 63 in
      save_callee_saved t ps ~slot;
      let copy0 = Cpu.cycles cpu in
      if large then
        Sky_trace.Trace.span ~core ~cat:"copy" "skybridge.copy" (fun () ->
            guest_copy_out t ~core b.buffer_vas.(conn) msg);
      let copy_cycles = ref (Cpu.cycles cpu - copy0) in
      let client_key = fresh_key t in
      (* --- cross into the server --- *)
      let outer = t.active_client.(core) in
      (* The gate returns to whatever state it was entered from: EPTP
         slot 0 for a plain VMFUNC client, the calling server's slot for
         a nested call (the FS returning from the disk driver must land
         back in the FS's address space, not the client's); the MPK and
         syscall tokens capture the analogous client state. *)
      let token = cross_enter t ~core vcpu ps b srv ~idx in
      t.active_client.(core) <- Some ps;
      t.call_stack.(core) <- (server_id, start) :: t.call_stack.(core);
      let returned = ref false in
      let pop_frame () =
        match t.call_stack.(core) with
        | _ :: rest -> t.call_stack.(core) <- rest
        | [] -> ()
      in
      let finish_return reply =
        (* --- cross back, restore --- *)
        Fault.leave_scope ();
        cross_leave t ~core vcpu token;
        t.active_client.(core) <- outer;
        pop_frame ();
        Trampoline.charge_crossing cpu ~text_pa:ps.trampoline_text_pa;
        returned := true;
        reply
      in
      let forced_return () =
        (* §7: the watchdog forces the stranded client back through the
           same mechanism it entered by — the VMFUNC return switch, the
           WRPKRU restore, or the kernel's CR3 switch back — and
           restores the callee-saved registers from the trampoline save
           area (the aborted server run never ran the gate epilogue). *)
        Fault.leave_scope ();
        t.forced_returns <- t.forced_returns + 1;
        Sky_trace.Trace.span ~core ~cat:"recovery" "recovery.forced_return"
        @@ fun () ->
        cross_leave t ~core vcpu token;
        t.active_client.(core) <- outer;
        pop_frame ();
        Trampoline.charge_crossing cpu ~text_pa:ps.trampoline_text_pa;
        restore_callee_saved t ps ~slot;
        returned := true
      in
      (* Scoped ambient fault sites (sim/mmu/exec/ipc) may fire from here
         until the return crossing: the fault lands while the client
         executes inside the server's space. *)
      Fault.enter_scope ();
      match
        (* --- server side --- *)
        (* Calling-key check against the server's table (§4.4). *)
        let presented =
          match attack with Some `Fake_server_key -> 0xBADBADL | _ -> b.server_key
        in
        let key_ok =
          Sky_trace.Trace.span ~core ~cat:"other" "skybridge.keycheck" (fun () ->
              check_key t ~core srv presented)
        in
        if not key_ok then begin
          security t
            (Printf.sprintf "server %d rejected key %Lx from pid %d" server_id
               presented ps.proc.Proc.pid);
          ignore (finish_return Bytes.empty);
          raise (Bad_server_key { server_id; presented })
        end;
        let msg' =
          if large then
            Sky_trace.Trace.span ~core ~cat:"copy" "skybridge.copy" (fun () ->
                guest_copy_in t ~core b.buffer_vas.(conn) (Bytes.length msg))
          else msg
        in
        let reply = srv.handler ~core msg' in
        (* DoS timeout (§7): if the server burned past the budget, the
           kernel's timer tick forces control back to the client. *)
        match timeout with
        | Some budget when Cpu.cycles cpu - start > budget ->
          let elapsed = Cpu.cycles cpu - start in
          clobber_callee_saved ps;
          forced_return ();
          Kernel.kernel_entry t.kernel ~core;
          Kernel.kernel_exit t.kernel ~core;
          security t
            (Printf.sprintf "server %d timed out after %d cycles; client forced back"
               server_id elapsed);
          Error (Timeout { server_id; elapsed })
        | _ ->
          (* Client-key echo (illegal client return defence). *)
          let echoed =
            match attack with
            | Some `Corrupt_return_key -> Int64.lognot client_key
            | _ -> client_key
          in
          let reply_large = Bytes.length reply > Ipc.register_msg_limit in
          if reply_large then begin
            let c0 = Cpu.cycles cpu in
            Sky_trace.Trace.span ~core ~cat:"copy" "skybridge.copy" (fun () ->
                guest_copy_out t ~core b.buffer_vas.(conn) reply);
            copy_cycles := !copy_cycles + (Cpu.cycles cpu - c0)
          end;
          let reply = finish_return reply in
          if echoed <> client_key then begin
            security t
              (Printf.sprintf "server %d returned a corrupted client key"
                 server_id);
            raise (Bad_client_return { server_id })
          end;
          let reply =
            if reply_large then begin
              let c0 = Cpu.cycles cpu in
              let r =
                Sky_trace.Trace.span ~core ~cat:"copy" "skybridge.copy" (fun () ->
                    guest_copy_in t ~core b.buffer_vas.(conn) (Bytes.length reply))
              in
              copy_cycles := !copy_cycles + (Cpu.cycles cpu - c0);
              r
            end
            else reply
          in
          (* Accounting (Figure 7 categories): the two switch legs land
             in the domain-switch bucket for the user-level mechanisms
             and the syscall bucket for the kernel-mediated one. *)
          (match t.backend with
          | Backend.Vmfunc | Backend.Mpk ->
            t.stats.Breakdown.vmfunc <-
              t.stats.Breakdown.vmfunc + (2 * Backend.switch_cycles t.backend)
          | Backend.Syscall ->
            t.stats.Breakdown.syscall <-
              t.stats.Breakdown.syscall + (2 * Backend.switch_cycles t.backend));
          t.stats.Breakdown.other <-
            t.stats.Breakdown.other + (2 * Trampoline.crossing_cycles);
          t.stats.Breakdown.copy <- t.stats.Breakdown.copy + !copy_cycles;
          t.stats.Breakdown.walk <-
            t.stats.Breakdown.walk
            + (Pmu.read (Cpu.pmu cpu) Pmu.Walk_cycles - walk0);
          Ok reply
      with
      | outcome -> Result.map (fun reply -> (reply, `Direct)) outcome
      | exception e when not !returned ->
        (* The client is stranded inside the server's space: force it
           back, then surface a typed error (or re-raise a genuine bug —
           the cleanup has already happened either way). *)
        clobber_callee_saved ps;
        forced_return ();
        (match classify_abort t ~core cpu ~start ps ~server_id e with
        | Some err ->
          security t
            (Printf.sprintf "call to server %d aborted (%s); client forced back"
               server_id (Printexc.to_string e));
          Error err
        | None -> raise e)

let call t ~core ~client ~server_id ?(timeout = default_watchdog) ?attack msg =
  call_internal t ~core ~client ~server_id ~timeout ?attack msg

let direct_server_call t ~core ~client ~server_id ?timeout ?attack msg =
  match call_internal t ~core ~client ~server_id ?timeout ?attack msg with
  | Ok (reply, _) -> reply
  | Error (Timeout { server_id; elapsed }) ->
    raise (Call_timeout { server_id; elapsed })
  | Error (Crashed { server_id }) -> raise (Server_crashed { server_id })
  | Error (Revoked { server_id }) -> raise (Binding_revoked { server_id })

let current_identity t ~core = Rootkernel.current_identity t.root ~core

(* ------------------------------------------------------------------ *)
(* W^X code pages (§9)                                                 *)
(* ------------------------------------------------------------------ *)

let for_each_code_page proc f =
  List.iter
    (fun (va, code) ->
      let pages = (Bytes.length code + 4095) / 4096 in
      for i = 0 to pages - 1 do
        f (va + (i * 4096))
      done)
    proc.Proc.code

let make_code_writable t proc =
  for_each_code_page proc (fun va ->
      Page_table.protect proc.Proc.page_table ~mem:(Kernel.mem t.kernel) ~va
        ~flags:{ Pte.urw with Pte.nx = true })

let restore_code_executable t proc =
  for_each_code_page proc (fun va ->
      Page_table.protect proc.Proc.page_table ~mem:(Kernel.mem t.kernel) ~va
        ~flags:Pte.urx);
  (* Rescan the regenerated code — including instructions spanning
     neighbouring pages, because we rescan whole regions, not pages. *)
  rewrite_process t proc

let proc_is_clean t proc =
  List.for_all
    (fun (_va, code) -> Sky_rewriter.Rewrite.clean code)
    (Kernel.proc_code_bytes t.kernel proc)

(* ------------------------------------------------------------------ *)
(* Static security audit (lib/analysis)                                *)
(* ------------------------------------------------------------------ *)

(* The trampoline page as it currently exists in the shared physical
   frame — what processes actually execute, which is what the auditor
   must judge (a corrupted frame with pristine [trampoline_bytes] records
   would otherwise audit clean). *)
let live_trampoline t =
  Phys_mem.read_bytes (Kernel.mem t.kernel) t.trampoline_frame
    (Bytes.length t.trampoline_bytes)

(* Whole-machine audit: every registered process image, every guest page
   table, every process/binding EPT, every EPTP list, and the live
   trampoline bytes. Returns the (sorted) violation list; [] = clean. *)
(* [trampoline.callee-saved]: a thread at rest (no in-flight direct
   call) whose callee-saved registers still hold the aborted server
   run's clobber pattern — the §7 forced return failed to restore the
   trampoline save area. *)
let callee_saved_violations t =
  let in_flight ps =
    Array.exists
      (function Some a -> a == ps | None -> false)
      t.active_client
  in
  Hashtbl.fold (fun _ ps acc -> ps :: acc) t.pstates []
  |> List.sort (fun a b -> compare a.proc.Proc.pid b.proc.Proc.pid)
  |> List.concat_map (fun ps ->
         if in_flight ps then []
         else
           List.concat
             (List.mapi
                (fun i r ->
                  if
                    ps.regs.(Sky_isa.Reg.encoding r)
                    = Int64.of_int (0xDEAD0000 + i)
                  then
                    [
                      Sky_analysis.Report.v
                        ~invariant:"trampoline.callee-saved"
                        ~image:ps.proc.Proc.name
                        (Printf.sprintf
                           "%s holds the aborted server's clobber pattern \
                            (forced return did not restore the save area)"
                           (Sky_isa.Reg.name r));
                    ]
                  else [])
                callee_saved))

let sorted_pstates t =
  List.sort
    (fun a b -> compare a.proc.Proc.pid b.proc.Proc.pid)
    (Hashtbl.fold (fun _ ps acc -> ps :: acc) t.pstates [])

(* The server-id → server-pid table, for lowering capability grants
   (which speak server ids) into the pid pairs Isoflow's closure check
   consumes. *)
let server_ids t =
  List.sort compare
    (List.map (fun s -> (s.server_id, s.sproc.Proc.pid)) t.servers)

(* Test accessor: the live binding EPT for (client, server), for the
   mutation tests that forge mappings into it. *)
let binding_ept t proc ~server_id =
  match pstate_opt t proc with
  | None -> None
  | Some ps ->
    List.find_opt (fun b -> b.b_server_id = server_id) ps.bindings
    |> fun o ->
    Option.bind o (fun b ->
        match b.mech with Meptp e -> Some e | Mpkey _ | Mentry _ -> None)

(* Test accessor: the MPK identity of a registered process. *)
let mpk_view t proc =
  match pstate_opt t proc with
  | Some ps when t.backend = Backend.Mpk -> Some (ps.pkey, ps.pkru_view)
  | _ -> None

(* Lower the live machine into Isoflow's input: every registered process
   is both a domain (a set of VMFUNC-reachable EPTP slots) and a space
   (a CR3 that slots can land in); the live binding buffers are the only
   authorized cross-domain writable frames; [granted] defaults to the
   binding registry itself (the mesh overrides it with the capability
   closure, which is the stricter ground truth). *)
let isoflow_input ?granted t =
  let pstates = sorted_pstates t in
  let spaces =
    List.map
      (fun ps ->
        {
          Sky_analysis.Isoflow.s_pid = ps.proc.Proc.pid;
          s_name = ps.proc.Proc.name;
          s_cr3 = Proc.cr3 ps.proc;
        })
      pstates
  in
  let domains =
    List.map
      (fun ps ->
        {
          Sky_analysis.Isoflow.d_pid = ps.proc.Proc.pid;
          d_name = ps.proc.Proc.name;
          d_cr3 = Proc.cr3 ps.proc;
          d_slots = List.mapi (fun i root -> (i, root)) (eptp_list_of ps);
          d_allowed =
            Ept.root_pa ps.own_ept
            :: List.filter_map
                 (fun b ->
                   match b.mech with
                   | Meptp e -> Some (Ept.root_pa e)
                   | Mpkey _ | Mentry _ -> None)
                 ps.bindings;
        })
      pstates
  in
  let shared =
    List.concat_map
      (fun ps ->
        List.concat_map
          (fun b ->
            Array.to_list
              (Array.mapi
                 (fun i pa ->
                   {
                     Sky_analysis.Isoflow.r_name =
                       Printf.sprintf "buf:%s->server%d/%d" ps.proc.Proc.name
                         b.b_server_id i;
                     r_pa = pa;
                     r_len = buffer_size;
                   })
                 b.buffer_pas))
          ps.bindings)
      pstates
  in
  let granted =
    match granted with
    | Some g -> g
    | None ->
      List.sort_uniq compare
        (List.concat_map
           (fun ps ->
             List.map
               (fun b ->
                 ( ps.proc.Proc.pid,
                   (find_server t b.b_server_id).sproc.Proc.pid ))
               ps.bindings)
           pstates)
  in
  let cores =
    Array.to_list
      (Array.mapi
         (fun core vmcs ->
           let pid =
             match t.kernel.Kernel.running.(core) with
             | Some p when Hashtbl.mem t.pstates p.Proc.pid -> Some p.Proc.pid
             | _ -> None
           in
           ( Printf.sprintf "core%d" core,
             pid,
             Array.to_list vmcs.Vmcs.eptp_list ))
         t.root.Rootkernel.vmcses)
  in
  {
    Sky_analysis.Isoflow.mem = Kernel.mem t.kernel;
    domains;
    spaces;
    shared;
    granted;
    cores;
    base_root = Ept.root_pa t.root.Rootkernel.base_ept;
    trampoline_va = Layout.trampoline_va;
    trampoline_gpa = t.trampoline_frame;
    trampoline_bytes = live_trampoline t;
    mpk =
      (match t.backend with
      | Backend.Mpk ->
        Some
          {
            Sky_analysis.Isoflow.m_domains =
              List.map
                (fun ps ->
                  {
                    Sky_analysis.Isoflow.m_pid = ps.proc.Proc.pid;
                    m_name = ps.proc.Proc.name;
                    m_key = ps.pkey;
                    m_view = ps.pkru_view;
                  })
                pstates;
            m_shared_key = 0;
          }
      | Backend.Vmfunc | Backend.Syscall -> None);
  }

(* The full pass-registry input for this machine. *)
let audit_input ?granted t =
  let mem = Kernel.mem t.kernel in
  let tramp = live_trampoline t in
  let allowed = Trampoline.vmfunc_ranges t.trampoline_bytes in
  let pstates = sorted_pstates t in
  let images =
    Sky_analysis.Gadget.image ~name:"trampoline" ~va:Layout.trampoline_va
      ~allowed tramp
    :: List.concat_map (fun ps -> gadget_images t ps.proc) pstates
  in
  (* The MPK backend's WRPKRU scan: same images, but the allowed ranges
     are the call gate's two WRPKRUs rather than VMFUNCs. *)
  let wrpkru_images =
    match t.backend with
    | Backend.Mpk ->
      Sky_analysis.Gadget.image ~name:"trampoline" ~va:Layout.trampoline_va
        ~allowed:(Trampoline.wrpkru_ranges t.trampoline_bytes)
        tramp
      :: List.concat_map (fun ps -> gadget_images t ps.proc) pstates
    | Backend.Vmfunc | Backend.Syscall -> []
  in
  let entry_filter =
    match t.backend with
    | Backend.Syscall ->
      Some
        {
          Sky_analysis.Audit.ef_entries = Entry_filter.entries t.entry_filter;
          ef_blessed = [ (Layout.trampoline_va, 4096) ];
        }
    | Backend.Vmfunc | Backend.Mpk -> None
  in
  let epts =
    List.concat_map
      (fun ps ->
        (Printf.sprintf "ept:%s" ps.proc.Proc.name, Ept.root_pa ps.own_ept)
        :: List.filter_map
             (fun b ->
               match b.mech with
               | Meptp e ->
                 Some
                   ( Printf.sprintf "ept:%s->server%d" ps.proc.Proc.name
                       b.b_server_id,
                     Ept.root_pa e )
               | Mpkey _ | Mentry _ -> None)
             ps.bindings)
      pstates
  in
  let known_roots =
    Ept.root_pa t.root.Rootkernel.base_ept :: List.map snd epts
  in
  let eptp_lists =
    Array.to_list
      (Array.mapi (fun core vmcs -> (Printf.sprintf "vmcs:core%d" core, vmcs))
         t.root.Rootkernel.vmcses)
  in
  let page_tables =
    List.map
      (fun ps -> (Printf.sprintf "pt:%s" ps.proc.Proc.name, Proc.cr3 ps.proc))
      pstates
  in
  let machine =
    {
      Sky_analysis.Ept_check.mem;
      phys_bytes = Phys_mem.size_bytes mem;
      epts;
      known_roots;
      eptp_lists;
      page_tables;
      trampoline_gpa = t.trampoline_frame;
      trampoline_va = Layout.trampoline_va;
    }
  in
  Sky_analysis.Audit.input ~images ~wrpkru_images ~machine
    ~trampolines:[ ("trampoline", tramp, Backend.tramp_flavor t.backend) ]
    ?entry_filter ~isoflow:(isoflow_input ?granted t) ()

(* Whole-machine audit through the unified pass registry; the dynamic
   callee-saved check (live register state, not lowerable to plain data)
   rides in the trampoline pass. *)
let audit_passes ?granted t =
  let prs = Sky_analysis.Audit.run_passes (audit_input ?granted t) in
  match callee_saved_violations t with
  | [] -> prs
  | cs ->
    List.map
      (fun (pr : Sky_analysis.Audit.pass_result) ->
        if pr.Sky_analysis.Audit.pr_name = "trampoline" then
          {
            pr with
            Sky_analysis.Audit.pr_violations =
              Sky_analysis.Report.sort
                (cs @ pr.Sky_analysis.Audit.pr_violations);
          }
        else pr)
      prs

let audit t = Sky_analysis.Audit.violations (audit_passes t)
