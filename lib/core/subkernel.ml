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
  | Too_large of { server_id : int; len : int }

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
  mutable dead : bool;  (** crashed and not yet restarted *)
}

type binding = {
  server_key : int64;
  buffer_vas : int array;  (** one per server connection/stack *)
  buffer_pas : int array;  (** backing frames, for re-sharing on rebind *)
  mech : Backend.mech;
  mutable last_use : int;  (** for EPTP-list LRU eviction *)
  mutable slot : int;  (** its EPTP-list slot (from 1), 0 while it holds none *)
}

(* ---- the binding table ----
   One state per (client, server) pair, in the client's row
   ([pstate.pairs]; no entry = never bound), and each server's [dead]
   flag. Its transitions (bind, install, evict, revoke, reap, restart,
   rebind, suspend, resume) are its only writers. *)

type revoked = Orphaned | Parked | Retired

type state = Bound of binding | Down of revoked

type pair = {
  p_sid : int;
  mutable state : state;
  mutable takeovers : int;  (** EPTP-list LRU evictions its calls made *)
  mutable recycled : int;  (** times the binding budget retired it *)
}

type pstate = {
  proc : Proc.t;
  own_ept : Ept.t;
  trampoline_text_pa : int;
  save_area_pa : int;  (** trampoline save area: callee-saved regs, per call *)
  regs : int64 array;  (** modelled register file (16 GPRs, §7 recovery) *)
  mutable pairs : pair list;  (** in bind order: a (re)bound pair moves to the end *)
  mutable slots : int;  (** EPTP-list slots in use, from 1 *)
  pkey : int;  (** MPK: the protection key tagging this domain (0 = none) *)
  pkru_view : int;  (** MPK: resting PKRU view installed when scheduled *)
  active : pstate option;
      (** [Some] of this state, built once: what [active_client] holds
          while it is the root client of a direct call *)
}

(* One direct call in flight on a core. *)
type frame = {
  mutable f_server_id : int;
  mutable f_since : int;  (** in-server since cycle *)
  f_token : Backend.token;  (** what the return crossing restores *)
}

type t = {
  kernel : Kernel.t;
  root : Rootkernel.t;
  rng : Rng.t;
  backend : Backend.kind;  (** the isolation mechanism carrying crossings *)
  entry_filter : Entry_filter.t;
      (** the filtered-syscall backend's per-domain grant table *)
  mutable servers : server list;
  pstates : (int, pstate) Hashtbl.t;
  mutable next_server_id : int;
  mutable next_buffer_va : int;
  max_eptp : int;
  max_bindings : int;  (** global fast-path binding budget *)
  stats : Breakdown.t;
  mutable calls : int;
  sec_buf : string array;  (** bounded security-event ring *)
  mutable sec_next : int;
  mutable sec_count : int;
  mutable sec_dropped : int;
  active_client : pstate option array;  (** per core: live direct call *)
  frames : frame array array;
      (** per core: the call frames, outermost first; the first
          [depth] are live, the rest reused; grown on demand *)
  depth : int array;  (** per core: live frames in [frames] *)
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

let call_state t ~core =
  let d = t.depth.(core) in
  if d = 0 then None
  else
    let f = t.frames.(core).(d - 1) in
    Some (f.f_server_id, f.f_since)

let pstate_opt t proc = Hashtbl.find_opt t.pstates proc.Proc.pid

let sorted_pstates t =
  List.sort
    (fun a b -> compare a.proc.Proc.pid b.proc.Proc.pid)
    (Hashtbl.fold (fun _ ps acc -> ps :: acc) t.pstates [])

(* ---- reading the binding table ---- *)

(* The pair [server_id] in a row; raises [Not_found] when it was never
   bound. A toplevel loop: a call finds its pair allocating nothing. *)
let rec pair_in server_id = function
  | p :: rest -> if p.p_sid = server_id then p else pair_in server_id rest
  | [] -> raise Not_found

let state_of ps ~server_id =
  match pair_in server_id ps.pairs with p -> Some p.state | exception Not_found -> None

(* A row's live bindings with their server ids, in bind order. *)
let bound ps =
  List.filter_map
    (fun p -> match p.state with Bound b -> Some (p.p_sid, b) | Down _ -> None)
    ps.pairs

let fold_pairs t f acc =
  Hashtbl.fold (fun pid ps acc -> List.fold_left (f pid) acc ps.pairs) t.pstates acc

(* Every live direct binding, as sorted (client pid, server id) pairs —
   the raw material for the mesh auditor's "no binding outlives its
   capability" check. *)
let bindings t =
  fold_pairs t
    (fun pid acc p -> match p.state with Bound _ -> (pid, p.p_sid) :: acc | Down _ -> acc)
    []
  |> List.sort compare

let live_bindings t =
  fold_pairs t (fun _ n p -> match p.state with Bound _ -> n + 1 | Down _ -> n) 0

let evictions t = fold_pairs t (fun _ n p -> n + p.takeovers) 0
let slot_evictions t = fold_pairs t (fun _ n p -> n + p.recycled) 0

let process_evictions t proc =
  match pstate_opt t proc with
  | Some ps -> List.fold_left (fun n p -> n + p.takeovers) 0 ps.pairs
  | None -> 0

let dead_servers t =
  List.filter_map (fun s -> if s.dead then Some s.server_id else None) t.servers

(* Server ids holding EPTP-list slots for [proc], in slot order. *)
let installed_servers t proc =
  match pstate_opt t proc with
  | Some ps ->
    List.filter (fun (_, b) -> b.slot > 0) (bound ps)
    |> List.sort (fun (_, a) (_, b) -> compare a.slot b.slot)
    |> List.map fst
  | None -> []

let on_binding_change t f = t.binding_hooks <- f :: t.binding_hooks

let fire_binding_change t ~server_id =
  List.iter (fun f -> f ~server_id) t.binding_hooks

let slot_root b = Ept.root_pa (Backend.slot_ept b.mech)

(* The binding in EPTP slot [i]; raises [Not_found] once it was revoked,
   which leaves the client's own EPT in the slot. *)
let rec slot_holder i = function
  | { state = Bound b; _ } :: _ when b.slot = i -> b
  | _ :: rest -> slot_holder i rest
  | [] -> raise Not_found

let eptp_list_of ps =
  let own = Ept.root_pa ps.own_ept in
  own
  :: List.init ps.slots (fun i ->
         match slot_holder (i + 1) ps.pairs with b -> slot_root b | exception Not_found -> own)

(* The bindings that own a binding EPT, for the audits. *)
let slot_bindings ps = List.filter (fun (_, b) -> Backend.holds_slot b.mech) (bound ps)

(* Install the EPTP list for [proc] on [core] — called from the kernel's
   context-switch hook. Only processes registered into SkyBridge carry a
   list; switching between unregistered processes keeps the base list
   installed and costs no VM exit (Table 5). In a shared address space
   (MPK) the scheduled process additionally gets its resting PKRU
   view. *)
let install_for t ~core proc =
  match pstate_opt t proc with
  | Some ps ->
    if Backend.shared_address_space t.backend then
      (Kernel.vcpu t.kernel ~core).Vcpu.pkru <- ps.pkru_view;
    Rootkernel.install_eptp_list t.root ~core (eptp_list_of ps)
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
  let trampoline_bytes = Backend.gate_code backend in
  let trampoline_frame = Frame_alloc.alloc_frame (Kernel.alloc kernel) in
  Phys_mem.write_bytes (Kernel.mem kernel) trampoline_frame trampoline_bytes;
  let t =
    {
      kernel;
      root;
      rng = Rng.create ~seed;
      backend;
      entry_filter = Entry_filter.create ();
      servers = [];
      pstates = Hashtbl.create 16;
      next_server_id = 1;
      next_buffer_va = Layout.skybridge_buffer_va;
      max_eptp;
      max_bindings;
      stats = Breakdown.create ();
      calls = 0;
      sec_buf = Array.make security_ring_capacity "";
      sec_next = 0;
      sec_count = 0;
      sec_dropped = 0;
      active_client = Array.make (Machine.n_cores kernel.Kernel.machine) None;
      frames = Array.make (Machine.n_cores kernel.Kernel.machine) [||];
      depth = Array.make (Machine.n_cores kernel.Kernel.machine) 0;
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
   executable pages cannot be verified must not join SkyBridge. In a
   shared address space (MPK) the same images must additionally prove
   free of WRPKRU occurrences (ERIM's inspection requirement): a stray
   [0F 01 EF] would let the domain rewrite its own PKRU. *)
let audit_registration t proc =
  let images = gadget_images t proc in
  let vs = List.concat_map Sky_analysis.Gadget.audit images in
  let vs =
    if Backend.shared_address_space t.backend then
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
    (* Processes are never unregistered, so this is the domain's
       registration ordinal. *)
    let pkey = Backend.domain_key t.backend (Hashtbl.length t.pstates + 1) in
    let rec ps =
      {
        proc;
        own_ept;
        trampoline_text_pa = t.trampoline_frame;
        save_area_pa = Frame_alloc.alloc_frame (Kernel.alloc t.kernel);
        regs =
          Array.init 16 (fun i -> Int64.of_int ((proc.Proc.pid * 0x100) lor i));
        pairs = [];
        slots = 0;
        pkey;
        pkru_view = Backend.resting_view t.backend pkey;
        active = Some ps;
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

(* The registers the trampoline prologue pushes (Trampoline.prologue): the
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
  | [] -> raise Not_found

let find_server t server_id =
  match server_in server_id t.servers with
  | s -> s
  | exception Not_found -> invalid_arg (Printf.sprintf "SkyBridge: unknown server id %d" server_id)

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
    { server_id; sproc = proc; handler; connection_count; stack_vas; key_table_pa; deps;
      dead = false }
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

(* The table scan compares each slot's words in place: a check reads
   no boxed [int64]. *)
let rec key_in mem cpu table key i =
  i < key_table_slots
  &&
  let slot = table + (i * 16) in
  Memsys.access cpu Memsys.Data slot;
  (not (Phys_mem.equal_u64 mem slot 0L))
  && (Phys_mem.equal_u64 mem (slot + 8) key || key_in mem cpu table key (i + 1))

(* Check [key] against the server's table, charging the reads the
   receiver performs (§4.4). *)
let check_key t ~core srv key =
  key_in (Kernel.mem t.kernel) (Kernel.cpu t.kernel ~core) srv.key_table_pa key 0

(* Transitive dependency closure of a server, in call order. *)
let rec dep_closure t server_id =
  let srv = find_server t server_id in
  server_id
  :: List.concat_map (fun d -> dep_closure t d) srv.deps

let server_dep_closure t ~server_id = List.sort_uniq compare (dep_closure t server_id)

let fresh_key t =
  let k = Rng.next_int64 t.rng in
  if k = 0L then 1L else k

(* Bind: a fresh binding for [server_id] in [ps]'s row, taking the next
   EPTP-list slot while one is free. *)
let bind_one t ps ~server_id ~key ~share_with =
  let srv = find_server t server_id in
  let server_view =
    match pstate_opt t srv.sproc with
    | Some sps -> sps.pkru_view
    | None -> invalid_arg "Subkernel.bind_one: server not registered"
  in
  let mech =
    Backend.bind t.backend t.root t.entry_filter
      ~harden:(harden_trampoline_ept t) ~client:ps.proc ~server:srv.sproc
      ~server_id ~server_view
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
  let slot =
    if Backend.holds_slot mech && ps.slots + 1 < t.max_eptp then begin
      ps.slots <- ps.slots + 1;
      ps.slots
    end
    else 0
  in
  let b = { server_key = key; buffer_vas; buffer_pas; mech; last_use = 0; slot } in
  (* The pair keeps its counters and moves to the end of the row. *)
  let p =
    match pair_in server_id ps.pairs with
    | p -> p
    | exception Not_found -> { p_sid = server_id; state = Bound b; takeovers = 0; recycled = 0 }
  in
  p.state <- Bound b;
  ps.pairs <- List.filter (fun q -> q != p) ps.pairs @ [ p ]

(* The key a process uses to call [server_id]: its own binding's key. *)
let key_for t proc ~server_id =
  match pstate_opt t proc with
  | Some ps -> (
    match state_of ps ~server_id with Some (Bound b) -> Some b.server_key | _ -> None)
  | None -> None

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

(* Rewrite [ps]'s EPTP list on [core], keeping the live EPTP index: the
   hardware list update does not switch, so a running call stays in
   its address space. *)
let reinstall t ~core ps =
  let vmcs = t.root.Rootkernel.vmcses.(core) in
  let saved = Vmcs.current_index vmcs in
  Rootkernel.install_eptp_list t.root ~core (eptp_list_of ps);
  vmcs.Vmcs.current_index <- saved

(* Push the (changed) EPTP list to every core currently running the
   process. *)
let refresh_lists t ps =
  Array.iteri
    (fun core running ->
      match running with
      | Some p when p == ps.proc -> reinstall t ~core ps
      | _ -> ())
    t.kernel.Kernel.running

(* Revoke: move the pair to [into], or to its current state if that is
   the stronger one (Orphaned < Parked < Retired), so no revocation
   undoes another. Tearing a bound pair down removes the binding (its
   EPTP slot degenerates in place: in-flight nested frames hold slot
   indices), zeroes its calling key, unmaps its buffers and logs a
   security event; a pair already down only changes state. *)
let revoke_binding t ~core proc ~server_id ~reason ~into =
  match pstate_opt t proc with
  | None -> ()
  | Some ps -> (
    match pair_in server_id ps.pairs with
    | exception Not_found -> ()
    | { state = Down was; _ } as p -> p.state <- Down (max was into)
    | { state = Bound b; _ } as p ->
      p.state <- Down into;
      Backend.revoke t.entry_filter ~pid:proc.Proc.pid ~server_id b.mech;
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
   resource is the Subkernel's total fast-path footprint (binding EPTs,
   shared buffers, calling-key slots). [max_bindings] caps the live
   bindings; a registration that would exceed it retires every binding
   of the least-recently-calling other process, whose calls then
   degrade to the slowpath (counted in [degraded_calls]) instead of
   failing. Recycled tenants that come back re-register and evict
   someone else: slots circulate by LRU. *)

(* Victim = the registered process whose most recent call through any of
   its bindings is oldest; ties break on the lower pid, so the choice
   (and thus the whole run) stays deterministic. *)
let slot_victim t ~except_pid =
  List.fold_left
    (fun best ps ->
      match bound ps with
      | [] -> best
      | _ when ps.proc.Proc.pid = except_pid -> best
      | bs -> (
        let recent = List.fold_left (fun a (_, b) -> Int.max a b.last_use) 0 bs in
        match best with Some (r, _) when r <= recent -> best | _ -> Some (recent, ps)))
    None (sorted_pstates t)
  |> Option.map snd

let rec enforce_binding_budget t ps ~incoming =
  if live_bindings t + incoming > t.max_bindings then
    match slot_victim t ~except_pid:ps.proc.Proc.pid with
    | None -> ()  (* only the registering process holds bindings *)
    | Some victim ->
      List.iter
        (fun p ->
          match p.state with
          | Bound _ ->
            p.recycled <- p.recycled + 1;
            revoke_binding t ~core:0 victim.proc ~server_id:p.p_sid ~into:Retired
              ~reason:"fast-path binding budget: LRU slots recycled"
          | Down _ -> ())
        victim.pairs;
      enforce_binding_budget t ps ~incoming

(* Which pairs a binding path may bind: a grant any pair not bound;
   recovery (restart, rebind) only an orphan; resume also what suspend
   parked. Nothing but a grant creates a pair or leaves [Retired]. *)
type path = Grant | Recover | Resume

let admits path = function
  | Some (Bound _) -> false
  | Some (Down Orphaned) -> true
  | Some (Down Parked) -> path <> Recover
  | None | Some (Down Retired) -> path = Grant

(* Bind [server_id] and every closure member [path] admits, after one
   budget pass over exactly those members. *)
let bind_closure t ps ~server_id path =
  let takes sid = admits path (state_of ps ~server_id:sid) in
  if takes server_id then begin
    let closure = dep_closure t server_id in
    let missing =
      List.fold_left
        (fun acc sid -> if List.mem sid acc || not (takes sid) then acc else sid :: acc)
        [] closure
      |> List.rev
    in
    if t.max_bindings <> max_int then
      enforce_binding_budget t ps ~incoming:(List.length missing);
    (* Every process in the call chain shares the dependency buffers.
       Besides [server_id]'s own closure, keep any intermediate server
       this process already reaches that depends on [server_id]: a
       rebound dependency binding's buffers are read while executing
       under the intermediary's EPT (the CR3 remap makes the guest walk
       use the intermediary's page tables), so dropping it from the
       chain would page-fault the next nested call after a recovery. *)
    let intermediaries =
      List.filter_map
        (fun (sid, _) ->
          if sid <> server_id && List.mem server_id (dep_closure t sid) then
            Some (find_server t sid).sproc
          else None)
        (bound ps)
    in
    let chain_procs =
      List.map (fun sid -> (find_server t sid).sproc) closure @ intermediaries
    in
    (* Dependency bindings that survived a partial reap keep their old
       buffers: re-share those frames with the (possibly new) chain so a
       freshly rebound intermediary can still reach them. *)
    List.iter
      (fun (sid, b) ->
        if sid <> server_id && List.mem sid closure then
          Array.iteri
            (fun i va ->
              List.iter
                (fun proc ->
                  Kernel.map_frames t.kernel proc ~va ~pa:b.buffer_pas.(i)
                    ~len:buffer_size
                    ~flags:{ Pte.urw with Pte.nx = true })
                (ps.proc :: chain_procs))
            b.buffer_vas)
      (bound ps);
    List.iter
      (fun sid ->
        let srv = find_server t sid in
        (* The direct binding gets a fresh key; dependency bindings
           reuse the key of the server that actually calls them (the
           FS's key for the disk, not the client's). *)
        let key =
          match
            if sid = server_id then None
            else List.find_map (fun s -> key_for t s.sproc ~server_id:sid) t.servers
          with
          | Some k -> k
          | None ->
            (* The primary, or a dependency its intermediate server
               never registered to: a fresh key of its own. *)
            let k = fresh_key t in
            install_key t srv ~client_pid:ps.proc.Proc.pid ~key:k;
            k
        in
        bind_one t ps ~server_id:sid ~key ~share_with:chain_procs)
      missing;
    List.iter (fun sid -> fire_binding_change t ~server_id:sid) closure
  end

let register_client_to_server t proc ~server_id =
  bind_closure t (ensure_pstate t proc) ~server_id Grant

(* Reap: a crashed server strands every connection bound to it; each
   bound pair becomes an orphan a restart re-binds. *)
let mark_server_dead t ~core ~server_id =
  let srv = find_server t server_id in
  if not srv.dead then begin
    srv.dead <- true;
    security t
      (Printf.sprintf "server %d crashed; reaping orphaned connections"
         server_id);
    Sky_trace.Trace.instant ~core ~cat:"recovery" "recovery.reap";
    List.iter
      (fun ps ->
        revoke_binding t ~core ps.proc ~server_id ~into:Orphaned
          ~reason:"orphaned by server crash")
      (sorted_pstates t)
  end

(* Restart: bring a crashed server back and re-bind its orphans with
   fresh keys and binding EPTs, in pid order. *)
let restart_server t ~server_id =
  let srv = find_server t server_id in
  if srv.dead then begin
    srv.dead <- false;
    t.restarts <- t.restarts + 1;
    let orphans =
      List.filter (fun ps -> admits Recover (state_of ps ~server_id)) (sorted_pstates t)
    in
    List.iter (fun ps -> bind_closure t ps ~server_id Recover) orphans;
    security t
      (Printf.sprintf "server %d restarted; %d connections rebound" server_id
         (List.length orphans));
    Sky_trace.Trace.instant ~core:0 ~cat:"recovery" "recovery.restart"
  end

(* Rebind: re-establish one orphan (fresh key, fresh EPT); a pair
   parked or retired stays down. *)
let rebind t proc ~server_id =
  Option.iter (fun ps -> bind_closure t ps ~server_id Recover) (pstate_opt t proc)

let sids_where ps f =
  List.sort compare (List.filter_map (fun p -> if f p.state then Some p.p_sid else None) ps.pairs)

(* Suspend parks every bound pair of a crashed client; resume re-binds
   what is still parked (a capability sweep meanwhile retired the
   rest), in server-id order. *)
let suspend t ~core proc =
  Option.iter
    (fun ps ->
      List.iter
        (fun server_id ->
          revoke_binding t ~core proc ~server_id ~into:Parked ~reason:"client suspended (crash)")
        (sids_where ps (function Bound _ -> true | Down _ -> false)))
    (pstate_opt t proc)

let resume t proc =
  Option.iter
    (fun ps ->
      List.iter
        (fun server_id -> bind_closure t ps ~server_id Resume)
        (sids_where ps (function Down Parked -> true | _ -> false)))
    (pstate_opt t proc)

(* ------------------------------------------------------------------ *)
(* direct_server_call                                                  *)
(* ------------------------------------------------------------------ *)

let slot_use ps i = match slot_holder i ps.pairs with b -> b.last_use | exception Not_found -> 0

(* The first least-recently-used slot; a revoked binding's slot counts
   as never used. *)
let lru_slot ps =
  let best = ref 1 in
  for i = 2 to ps.slots do
    if slot_use ps i < slot_use ps !best then best := i
  done;
  !best

(* Install: make sure [b] occupies a slot, evicting the slot's
   least-recently-used holder when the list is full (§10 future work).
   Requires a Rootkernel VMCALL to rewrite the list. *)
let ensure_installed t ~core ps p b =
  if b.slot > 0 then begin
    (* The list in the VMCS may predate this binding (registered after
       the client was last scheduled): refresh it if stale. *)
    let vmcs = t.root.Rootkernel.vmcses.(core) in
    if Vmcs.eptp_at vmcs ~index:b.slot <> slot_root b then reinstall t ~core ps
  end
  else begin
    if ps.slots > 0 && ps.slots + 1 >= t.max_eptp then begin
      let victim = lru_slot ps in
      (match slot_holder victim ps.pairs with v -> v.slot <- 0 | exception Not_found -> ());
      b.slot <- victim;
      p.takeovers <- p.takeovers + 1
    end
    else begin
      ps.slots <- ps.slots + 1;
      b.slot <- ps.slots
    end;
    reinstall t ~core ps
  end;
  b.slot

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

(* The degraded call: every slowpath reply is counted in
   [degraded_calls], which is how a caller tells it from a direct one. *)
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
    | Ipc.Message_too_large { len; _ } -> Error (Too_large { server_id; len })
    | e -> raise e)

(* Map an in-server exception to the typed error the client observes,
   performing the matching recovery action. [None] = a genuine bug, to
   be re-raised. *)
let classify_abort t ~core cpu ~start ps ~server_id e =
  match e with
  | Fault.Injected { kind = Fault.Ept_fault; _ }
  | Ept.Ept_violation _
  | Vmfunc.Invalid_vmfunc _ ->
    revoke_binding t ~core ps.proc ~server_id ~into:Orphaned
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

(* ---- the direct call's frames ----

   Each core keeps its call frames in an array of mutable records
   reused from call to call (server id, in-server-since cycle and the
   crossing token), and its root client as the pstate's prebuilt
   [active] option: entering and leaving a call allocates nothing. *)

let new_frame () = { f_server_id = 0; f_since = 0; f_token = Backend.token () }

(* The frame the next call on [core] fills, the array grown on demand. *)
let next_frame t ~core =
  let d = t.depth.(core) in
  let fr = t.frames.(core) in
  if d < Array.length fr then fr.(d)
  else begin
    let grown =
      Array.init (Int.max 4 (2 * Array.length fr)) (fun i ->
          if i < Array.length fr then fr.(i) else new_frame ())
    in
    t.frames.(core) <- grown;
    grown.(d)
  end

let push_frame t ~core f ~server_id ~start =
  f.f_server_id <- server_id;
  f.f_since <- start;
  t.depth.(core) <- t.depth.(core) + 1

let pop_frame t ~core = if t.depth.(core) > 0 then t.depth.(core) <- t.depth.(core) - 1

(* --- cross back, restore --- *)
let finish_return t ~core cpu vcpu ps b f outer =
  Fault.leave_scope ();
  Backend.leave t.kernel ~core vcpu f.f_token b.mech;
  t.active_client.(core) <- outer;
  pop_frame t ~core;
  Trampoline.charge_crossing cpu ~text_pa:ps.trampoline_text_pa

(* §7: the watchdog forces the stranded client back through the same
   mechanism it entered by — the VMFUNC return switch, the WRPKRU
   restore, or the kernel's CR3 switch back — and restores the
   callee-saved registers from the trampoline save area (the aborted
   server run never ran the gate epilogue). *)
let forced_return t ~core cpu vcpu ps b f outer ~slot =
  Fault.leave_scope ();
  t.forced_returns <- t.forced_returns + 1;
  Sky_trace.Trace.span ~core ~cat:"recovery" "recovery.forced_return" @@ fun () ->
  Backend.leave t.kernel ~core vcpu f.f_token b.mech;
  t.active_client.(core) <- outer;
  pop_frame t ~core;
  Trampoline.charge_crossing cpu ~text_pa:ps.trampoline_text_pa;
  restore_callee_saved t ps ~slot

(* Calling-key check against the server's table (§4.4), in its own span
   when tracing is on. *)
let key_check t ~core srv presented =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"other" "skybridge.keycheck" (fun () ->
        check_key t ~core srv presented)
  else check_key t ~core srv presented

(* A large message's pass through the connection's shared buffer, in a
   copy span when tracing is on. *)
let copy_out t ~core va data =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"copy" "skybridge.copy" (fun () ->
        guest_copy_out t ~core va data)
  else guest_copy_out t ~core va data

let copy_in t ~core va len =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core ~cat:"copy" "skybridge.copy" (fun () ->
        guest_copy_in t ~core va len)
  else guest_copy_in t ~core va len

(* The crossing proper, from the trampoline entry to the accounted
   reply. [budget] is the §7 watchdog budget ([max_int] = none). *)
let direct_call t ~core ps b srv ~server_id ~idx ~start ~walk0 ~budget ?attack msg =
  let cpu = Kernel.cpu t.kernel ~core in
  let vcpu = Kernel.vcpu t.kernel ~core in
  let window = b.buffer_vas.(core mod srv.connection_count) in
  let large = Bytes.length msg > Ipc.register_msg_limit in
  (* --- client side of the trampoline --- *)
  Trampoline.charge_crossing cpu ~text_pa:ps.trampoline_text_pa;
  (* Trampoline prologue: the callee-saved set goes to the per-call
     save slot, from which a forced return can restore it (§7). *)
  let slot = ((core * 8) + t.depth.(core)) land 63 in
  save_callee_saved t ps ~slot;
  let copy0 = Cpu.cycles cpu in
  if large then copy_out t ~core window msg;
  let copy_cycles = Cpu.cycles cpu - copy0 in
  (* The client key only has to survive the round trip, so it is drawn
     as an immediate (the same generator step as a stored key). *)
  let client_key = Rng.next t.rng in
  (* --- cross into the server --- *)
  let outer = t.active_client.(core) in
  let f = next_frame t ~core in
  (* The gate returns to whatever state it was entered from: EPTP
     slot 0 for a plain VMFUNC client, the calling server's slot for
     a nested call (the FS returning from the disk driver must land
     back in the FS's address space, not the client's); the MPK and
     syscall tokens capture the analogous client state. *)
  Backend.enter t.kernel t.entry_filter ~core vcpu ~pid:ps.proc.Proc.pid ~server_id
    ~server:srv.sproc ~idx f.f_token b.mech;
  t.active_client.(core) <- ps.active;
  push_frame t ~core f ~server_id ~start;
  (* Set once the client is back in its own space, by either return. *)
  let returned = ref false in
  (* Scoped ambient fault sites (sim/mmu/exec/ipc) may fire from here
     until the return crossing: the fault lands while the client
     executes inside the server's space. *)
  Fault.enter_scope ();
  match
    (* --- server side --- *)
    let presented =
      match attack with Some `Fake_server_key -> 0xBADBADL | _ -> b.server_key
    in
    if not (key_check t ~core srv presented) then begin
      security t
        (Printf.sprintf "server %d rejected key %Lx from pid %d" server_id
           presented ps.proc.Proc.pid);
      finish_return t ~core cpu vcpu ps b f outer;
      returned := true;
      raise (Bad_server_key { server_id; presented })
    end;
    let msg' = if large then copy_in t ~core window (Bytes.length msg) else msg in
    let reply = srv.handler ~core msg' in
    (* DoS timeout (§7): if the server burned past the budget, the
       kernel's timer tick forces control back to the client. *)
    if Cpu.cycles cpu - start > budget then begin
      let elapsed = Cpu.cycles cpu - start in
      clobber_callee_saved ps;
      forced_return t ~core cpu vcpu ps b f outer ~slot;
      returned := true;
      Kernel.kernel_entry t.kernel ~core;
      Kernel.kernel_exit t.kernel ~core;
      security t
        (Printf.sprintf "server %d timed out after %d cycles; client forced back"
           server_id elapsed);
      Error (Timeout { server_id; elapsed })
    end
    else if Bytes.length reply > buffer_size then begin
      (* A reply that cannot fit the window is never copied: the
         client is forced back (§7) and told why. *)
      forced_return t ~core cpu vcpu ps b f outer ~slot;
      returned := true;
      security t
        (Printf.sprintf
           "server %d returned %d bytes, over its %d-byte buffer; client forced back"
           server_id (Bytes.length reply) buffer_size);
      Error (Too_large { server_id; len = Bytes.length reply })
    end
    else begin
      (* Client-key echo (illegal client return defence). *)
      let echoed =
        match attack with
        | Some `Corrupt_return_key -> lnot client_key
        | _ -> client_key
      in
      let reply_large = Bytes.length reply > Ipc.register_msg_limit in
      let copy1 = Cpu.cycles cpu in
      if reply_large then copy_out t ~core window reply;
      let copy_cycles = copy_cycles + (Cpu.cycles cpu - copy1) in
      finish_return t ~core cpu vcpu ps b f outer;
      returned := true;
      if echoed <> client_key then begin
        security t
          (Printf.sprintf "server %d returned a corrupted client key" server_id);
        raise (Bad_client_return { server_id })
      end;
      let copy2 = Cpu.cycles cpu in
      let reply =
        if reply_large then copy_in t ~core window (Bytes.length reply) else reply
      in
      let copy_cycles = copy_cycles + (Cpu.cycles cpu - copy2) in
      (* Accounting (Figure 7 categories): the two switch legs land
         in the syscall bucket when the kernel is on the path, in the
         domain-switch bucket otherwise. *)
      let legs = 2 * Backend.switch_cycles t.backend in
      if Backend.kernel_on_path t.backend then
        t.stats.Breakdown.syscall <- t.stats.Breakdown.syscall + legs
      else t.stats.Breakdown.vmfunc <- t.stats.Breakdown.vmfunc + legs;
      t.stats.Breakdown.other <-
        t.stats.Breakdown.other + (2 * Trampoline.crossing_cycles);
      t.stats.Breakdown.copy <- t.stats.Breakdown.copy + copy_cycles;
      t.stats.Breakdown.walk <-
        t.stats.Breakdown.walk
        + (Pmu.read (Cpu.pmu cpu) Pmu.Walk_cycles - walk0);
      Ok reply
    end
  with
  | outcome -> outcome
  | exception e when not !returned ->
    (* The client is stranded inside the server's space: force it
       back, then surface a typed error (or re-raise a genuine bug —
       the cleanup has already happened either way). *)
    clobber_callee_saved ps;
    forced_return t ~core cpu vcpu ps b f outer ~slot;
    (match classify_abort t ~core cpu ~start ps ~server_id e with
    | Some err ->
      security t
        (Printf.sprintf "call to server %d aborted (%s); client forced back"
           server_id (Printexc.to_string e));
      Error err
    | None -> raise e)

(* Roundtrip span name: feeds the "skybridge.<kernel>.call" latency
   histogram; inner spans (vmfunc, copies, key check) refine the
   per-category attribution. *)
let call_span_name t =
  match t.kernel.Kernel.config.Config.variant with
  | Config.Sel4 -> "skybridge.sel4.call"
  | Config.Fiasco -> "skybridge.fiasco.call"
  | Config.Zircon -> "skybridge.zircon.call"
  | Config.Linux -> "skybridge.linux.call"

(* The root client of a call on [core]: nested calls resolve against
   the root client's EPTP list, which carries the dependency EPTs
   (§4.2). *)
let root_client t ~core ~client ~server_id =
  match t.active_client.(core) with
  | Some ps -> ps
  | None -> (
    match Hashtbl.find t.pstates client.Proc.pid with
    | ps -> ps
    | exception Not_found ->
      raise (Not_registered { client_pid = client.Proc.pid; server_id }))

(* A call over a pair its client never bound (or to no server). *)
let unbound t ps ~server_id =
  security t
    (Printf.sprintf "pid %d attempted unbound call to server %d"
       ps.proc.Proc.pid server_id);
  raise (Not_registered { client_pid = ps.proc.Proc.pid; server_id })

let call_bound t ~core ~client ~server_id ~budget ?attack msg =
  (* Fault site "subkernel.call": a revocation storm yanks the binding at
     call entry; top-level calls then degrade to the slowpath. *)
  (match Fault.check ~core "subkernel.call" with
  | Some Fault.Revoke ->
    let proc =
      match t.active_client.(core) with Some ps -> ps.proc | None -> client
    in
    revoke_binding t ~core proc ~server_id ~into:Orphaned
      ~reason:"injected revocation storm"
  | _ -> ());
  let ps = root_client t ~core ~client ~server_id in
  match server_in server_id t.servers with
  | exception Not_found -> unbound t ps ~server_id
  | { dead = true; _ } ->
    security t
      (Printf.sprintf "pid %d called dead server %d" ps.proc.Proc.pid server_id);
    Error (Crashed { server_id })
  | srv -> (
    match pair_in server_id ps.pairs with
    | { state = Down _; _ } ->
      if t.active_client.(core) = None then slowpath_call t ~core ps ~server_id msg
      else
        (* A nested call cannot take the slowpath mid-direct-call (the
           kernel transfer would rewrite the live EPTP state under the
           outer frame): abort the whole call chain instead. *)
        raise (Binding_revoked { server_id })
    | exception Not_found -> unbound t ps ~server_id
    | { state = Bound b; _ } as p -> (
      let cpu = Kernel.cpu t.kernel ~core in
      (* Make sure the root client is the running process (normally a
         no-op: the workload is already executing it). *)
      if t.active_client.(core) = None then
        Kernel.context_switch t.kernel ~core ps.proc;
      t.calls <- t.calls + 1;
      b.last_use <- t.calls;
      (* EPTP-slot residency, prepared outside the measured crossing. *)
      let idx =
        if Backend.holds_slot b.mech then ensure_installed t ~core ps p b else -1
      in
      let start = Cpu.cycles cpu in
      let walk0 = Pmu.read (Cpu.pmu cpu) Pmu.Walk_cycles in
      match
        if Sky_trace.Trace.is_enabled () then
          Sky_trace.Trace.span ~core ~cat:"ipc" (call_span_name t) (fun () ->
              direct_call t ~core ps b srv ~server_id ~idx ~start ~walk0 ~budget
                ?attack msg)
        else
          direct_call t ~core ps b srv ~server_id ~idx ~start ~walk0 ~budget
            ?attack msg
      with
      | outcome -> outcome
      | exception Backend.Denied ->
        (* The kernel refused the trap: the grant is gone although the
           binding stands. Retire the binding, as an EPT fault does, so
           a retry rebinds with a fresh grant. *)
        security t
          (Printf.sprintf "entry filter denied pid %d -> server %d"
             ps.proc.Proc.pid server_id);
        revoke_binding t ~core ps.proc ~server_id ~into:Orphaned
          ~reason:"entry filter denied the trap";
        Error (Revoked { server_id })))

(* A request longer than a connection's buffer window is refused here,
   before anything is charged, copied or revoked. *)
let call_internal t ~core ~client ~server_id ~budget ?attack msg =
  if Bytes.length msg > buffer_size then begin
    security t
      (Printf.sprintf "pid %d sent %d bytes to server %d, over its %d-byte buffer"
         client.Proc.pid (Bytes.length msg) server_id buffer_size);
    Error (Too_large { server_id; len = Bytes.length msg })
  end
  else call_bound t ~core ~client ~server_id ~budget ?attack msg

let call t ~core ~client ~server_id ?(timeout = default_watchdog) msg =
  call_internal t ~core ~client ~server_id ~budget:timeout msg

let direct_server_call t ~core ~client ~server_id ?timeout ?attack msg =
  let budget = match timeout with Some b -> b | None -> max_int in
  match call_internal t ~core ~client ~server_id ~budget ?attack msg with
  | Ok reply -> reply
  | Error (Timeout { server_id; elapsed }) ->
    raise (Call_timeout { server_id; elapsed })
  | Error (Crashed { server_id }) -> raise (Server_crashed { server_id })
  | Error (Revoked { server_id }) -> raise (Binding_revoked { server_id })
  | Error (Too_large { len; _ }) ->
    raise (Ipc.Message_too_large { len; limit = buffer_size })

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
  | Some ps -> (
    match state_of ps ~server_id with
    | Some (Bound b) when Backend.holds_slot b.mech -> Some (Backend.slot_ept b.mech)
    | _ -> None)

(* Test accessor: the MPK identity of a registered process. *)
let mpk_view t proc =
  match pstate_opt t proc with
  | Some ps when Backend.shared_address_space t.backend ->
    Some (ps.pkey, ps.pkru_view)
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
            Ept.root_pa ps.own_ept :: List.map (fun (_, b) -> slot_root b) (slot_bindings ps);
        })
      pstates
  in
  let shared =
    List.concat_map
      (fun ps ->
        List.concat_map
          (fun (sid, b) ->
            Array.to_list
              (Array.mapi
                 (fun i pa ->
                   {
                     Sky_analysis.Isoflow.r_name =
                       Printf.sprintf "buf:%s->server%d/%d" ps.proc.Proc.name sid i;
                     r_pa = pa;
                     r_len = buffer_size;
                   })
                 b.buffer_pas))
          (bound ps))
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
               (fun (sid, _) -> (ps.proc.Proc.pid, (find_server t sid).sproc.Proc.pid))
               (bound ps))
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
      (if Backend.shared_address_space t.backend then
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
       else None);
  }

(* The full pass-registry input for this machine: every registered
   process image, every guest page table, every process/binding EPT,
   every EPTP list and the live trampoline bytes; [mesh] is the mesh
   authority model, when a mesh routes this machine's calls. *)
let audit_input ?granted ?mesh t =
  let mem = Kernel.mem t.kernel in
  let tramp = live_trampoline t in
  let allowed = Trampoline.vmfunc_ranges t.trampoline_bytes in
  let pstates = sorted_pstates t in
  let images =
    Sky_analysis.Gadget.image ~name:"trampoline" ~va:Layout.trampoline_va
      ~allowed tramp
    :: List.concat_map (fun ps -> gadget_images t ps.proc) pstates
  in
  (* The shared address space's WRPKRU scan: same images, but the
     allowed ranges are the call gate's two WRPKRUs rather than VMFUNCs. *)
  let wrpkru_images =
    if Backend.shared_address_space t.backend then
      Sky_analysis.Gadget.image ~name:"trampoline" ~va:Layout.trampoline_va
        ~allowed:(Trampoline.wrpkru_ranges t.trampoline_bytes)
        tramp
      :: List.concat_map (fun ps -> gadget_images t ps.proc) pstates
    else []
  in
  (* With the kernel on the path, its grant table is authority too. *)
  let entry_filter =
    if Backend.kernel_on_path t.backend then
      Some
        {
          Sky_analysis.Audit.ef_entries = Entry_filter.entries t.entry_filter;
          ef_blessed = [ (Layout.trampoline_va, 4096) ];
        }
    else None
  in
  let epts =
    List.concat_map
      (fun ps ->
        (Printf.sprintf "ept:%s" ps.proc.Proc.name, Ept.root_pa ps.own_ept)
        :: List.map
             (fun (sid, b) ->
               (Printf.sprintf "ept:%s->server%d" ps.proc.Proc.name sid, slot_root b))
             (slot_bindings ps))
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
  {
    Sky_analysis.Audit.images;
    wrpkru_images;
    machine;
    trampolines = [ ("trampoline", tramp, Backend.tramp_flavor t.backend) ];
    entry_filter;
    mesh;
    isoflow = isoflow_input ?granted t;
  }

(* The one whole-machine audit driver, through the unified pass
   registry; the dynamic callee-saved check (live register state, not
   lowerable to plain data) rides in the trampoline pass. *)
let audit_passes ?granted ?mesh t =
  let prs = Sky_analysis.Audit.run_passes (audit_input ?granted ?mesh t) in
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
