(** The three-process KV pipeline of Figure 1 (client → encryption
    server → KV store), wired over every interconnect the paper
    measures:

    - [Baseline]: all three components in one address space, function
      calls (Figure 2's lower bound);
    - [Delay]: function calls plus a busy-wait equal to the direct cost
      of an IPC roundtrip (986 cycles per server call) — isolates the
      *indirect* cost of IPC, which is the gap left between [Delay] and
      [Ipc];
    - [Ipc_local] / [Ipc_cross]: separate processes over the kernel's
      synchronous IPC, servers co-located or pinned to other cores;
    - [Skybridge]: separate processes over [direct_server_call]. *)

open Sky_sim
open Sky_ukernel

type config = Baseline | Delay | Ipc_local | Ipc_cross | Skybridge

let config_name = function
  | Baseline -> "Baseline"
  | Delay -> "Delay"
  | Ipc_local -> "IPC"
  | Ipc_cross -> "IPC-CrossCore"
  | Skybridge -> "SkyBridge"

(* Client-side work per operation: request marshalling, bookkeeping. *)
let client_compute = 1200
let direct_ipc_roundtrip = 986 (* the Delay loop, §2.1.2 *)

(* Instruction working sets (bytes of text exercised per call) — these
   drive the i-cache pollution of Table 1: client + servers + kernel text
   together overflow the 32 KiB L1i, while the Baseline configuration's
   single image stays resident. *)
let client_text = 8 * 1024
let server_text = 6 * 1024

let touch_text kernel ~core pa len =
  Sky_sim.Memsys.touch_range_state_only (Kernel.cpu kernel ~core)
    Sky_sim.Memsys.Insn ~pa ~len

(* ---- server handlers (the KV store speaks {!Kv_wire}) ---- *)

let enc_handler rc4 kernel : Sky_kernels.Ipc.handler =
 fun ~core msg -> Rc4.crypt rc4 (Kernel.cpu kernel ~core) msg

(* ---- pipeline construction ---- *)

type t = {
  kernel : Kernel.t;
  config : config;
  client : Proc.t;
  call_enc : core:int -> bytes -> bytes;
  call_kv : core:int -> bytes -> bytes;
  buf_va : int;  (** client-side scratch where requests are composed *)
  ws_va : int;  (** client data working set (TLB footprint) *)
  client_text_pa : int;
  rng : Rng.t;
  mutable live_keys : (string * bytes) list;  (** (key, plaintext value) *)
  mutable ops : int;
  rstats : Sky_core.Retry.stats option;
}

let create ?sb ?ipc ?mesh ?(resilient = false) kernel config =
  let machine = kernel.Kernel.machine in
  let rc4 = Rc4.create machine ~key:"skybridge-pipeline" in
  let kv = Kv_server.create machine in
  let alloc_text len =
    Sky_mem.Frame_alloc.alloc_frames machine.Sky_sim.Machine.alloc
      ~count:((len + 4095) / 4096)
  in
  let client_text_pa = alloc_text client_text in
  let enc_text_pa = alloc_text server_text in
  let kv_text_pa = alloc_text server_text in
  let enc_h0 = enc_handler rc4 kernel and kv_h0 = Kv_wire.handler kv kernel in
  let enc_h ~core msg =
    touch_text kernel ~core enc_text_pa server_text;
    enc_h0 ~core msg
  in
  let kv_h ~core msg =
    touch_text kernel ~core kv_text_pa server_text;
    kv_h0 ~core msg
  in
  let rstats =
    if resilient then Some (Sky_core.Retry.create_stats ()) else None
  in
  let finish client call_enc call_kv =
    let buf_va = Kernel.map_anon kernel client 4096 in
    let ws_va = Kernel.map_anon kernel client 16384 in
    Kernel.context_switch kernel ~core:0 client;
    Sky_mmu.Vcpu.set_mode (Kernel.vcpu kernel ~core:0) Sky_mmu.Vcpu.User;
    {
      kernel;
      config;
      client;
      call_enc;
      call_kv;
      buf_va;
      ws_va;
      client_text_pa;
      rng = Rng.create ~seed:0x6b76;
      live_keys = [];
      ops = 0;
      rstats;
    }
  in
  match config with
  | Baseline | Delay ->
    let app = Kernel.spawn kernel ~name:"kv-app" in
    let delay ~core =
      if config = Delay then
        Cpu.charge (Kernel.cpu kernel ~core) direct_ipc_roundtrip
    in
    finish app
      (fun ~core msg ->
        delay ~core;
        enc_h ~core msg)
      (fun ~core msg ->
        delay ~core;
        kv_h ~core msg)
  | Ipc_local | Ipc_cross ->
    let ipc =
      match ipc with Some i -> i | None -> Sky_kernels.Ipc.create kernel
    in
    let client = Kernel.spawn kernel ~name:"client" in
    let enc_proc = Kernel.spawn kernel ~name:"enc-server" in
    let kv_proc = Kernel.spawn kernel ~name:"kv-server" in
    let cores_enc, cores_kv =
      if config = Ipc_cross then ([ 1 ], [ 2 ]) else ([], [])
    in
    let enc_ep = Sky_kernels.Ipc.register ipc enc_proc ~cores:cores_enc enc_h in
    let kv_ep = Sky_kernels.Ipc.register ipc kv_proc ~cores:cores_kv kv_h in
    finish client
      (fun ~core msg -> Sky_kernels.Ipc.call ipc ~core ~client enc_ep msg)
      (fun ~core msg -> Sky_kernels.Ipc.call ipc ~core ~client kv_ep msg)
  | Skybridge ->
    let sb =
      match sb with
      | Some sb -> sb
      | None -> invalid_arg "Pipeline.create: Skybridge requires ~sb"
    in
    let client = Kernel.spawn kernel ~name:"client" in
    let enc_proc = Kernel.spawn kernel ~name:"enc-server" in
    let kv_proc = Kernel.spawn kernel ~name:"kv-server" in
    let enc_sid = Sky_core.Subkernel.register_server sb enc_proc enc_h in
    let kv_sid = Sky_core.Subkernel.register_server sb kv_proc kv_h in
    (match mesh with
    | Some m ->
      (* URI addressing: servers register with the name service and the
         client is capability-granted (which also binds it); every call
         resolves [enc://] / [kv://] through the per-core cache. *)
      let module Mesh = Sky_mesh.Mesh in
      Mesh.register m ~core:0 ~uri:"enc://" ~server_id:enc_sid;
      Mesh.register m ~core:0 ~uri:"kv://" ~server_id:kv_sid;
      ignore (Mesh.grant m ~core:0 ~client "enc://");
      ignore (Mesh.grant m ~core:0 ~client "kv://")
    | None ->
      Sky_core.Subkernel.register_client_to_server sb client ~server_id:enc_sid;
      Sky_core.Subkernel.register_client_to_server sb client ~server_id:kv_sid);
    (match mesh with
    | Some m ->
      let module Mesh = Sky_mesh.Mesh in
      finish client
        (fun ~core msg -> Mesh.call_exn m ~core ~client "enc://" msg)
        (fun ~core msg -> Mesh.call_exn m ~core ~client "kv://" msg)
    | None ->
    if resilient then
      (* Bounded retry + exponential backoff around the recovery-aware
         call: crashed servers are restarted, revoked bindings degrade
         to the slowpath. Safe to retry: RC4 is stateless per message
         and KV insert is idempotent. *)
      finish client
        (fun ~core msg ->
          Sky_core.Retry.call ?stats:rstats sb ~core ~client
            ~server_id:enc_sid msg)
        (fun ~core msg ->
          Sky_core.Retry.call ?stats:rstats sb ~core ~client ~server_id:kv_sid
            msg)
    else
      finish client
        (fun ~core msg ->
          Sky_core.Subkernel.direct_server_call sb ~core ~client
            ~server_id:enc_sid msg)
        (fun ~core msg ->
          Sky_core.Subkernel.direct_server_call sb ~core ~client
            ~server_id:kv_sid msg))

(* ---- client operations ---- *)

(* Compose a fresh request in the client's scratch buffer (real user-mode
   stores), then run the pipeline. *)
let compose t ~core data =
  Cpu.charge (Kernel.cpu t.kernel ~core) client_compute;
  touch_text t.kernel ~core t.client_text_pa client_text;
  Sky_mmu.Translate.write_bytes
    (Kernel.vcpu t.kernel ~core)
    (Kernel.mem t.kernel) ~va:t.buf_va data

(* Revisit the client's data working set (one word per page): after an
   address-space switch flushed the TLB, these are the d-TLB refills the
   paper's Table 1 counts. *)
let touch_working_set t ~core =
  let vcpu = Kernel.vcpu t.kernel ~core and mem = Kernel.mem t.kernel in
  for page = 0 to 3 do
    ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va:(t.ws_va + (page * 4096)))
  done

let fresh_kv t ~len =
  let key = Rng.bytes t.rng len in
  (* Printable keys avoid zero-length collisions in the store. *)
  Bytes.set key 0 (Char.chr (0x41 + (t.ops land 0xf)));
  let value = Rng.bytes t.rng len in
  (Bytes.unsafe_to_string key, value)

let insert t ~core ~len =
  t.ops <- t.ops + 1;
  let key, value = fresh_kv t ~len in
  compose t ~core value;
  (* encrypt, then store the ciphertext *)
  let cipher = t.call_enc ~core value in
  touch_working_set t ~core;
  let reply = t.call_kv ~core (Kv_wire.insert_msg ~key ~value:cipher) in
  touch_working_set t ~core;
  assert (Bytes.length reply > 0);
  t.live_keys <- (key, value) :: t.live_keys;
  if List.length t.live_keys > 256 then
    t.live_keys <- List.filteri (fun i _ -> i < 256) t.live_keys;
  ()

exception Corrupt_pipeline of string

let query t ~core ~len =
  t.ops <- t.ops + 1;
  match t.live_keys with
  | [] -> insert t ~core ~len
  | (key, expected) :: _ ->
    compose t ~core (Bytes.unsafe_of_string key);
    let cipher = t.call_kv ~core (Kv_wire.query_msg ~key) in
    touch_working_set t ~core;
    if Bytes.length cipher = 0 then
      raise (Corrupt_pipeline "stored key vanished from the KV server");
    let plain = t.call_enc ~core cipher in
    touch_working_set t ~core;
    (* The pipeline is self-checking: decrypt(store(encrypt(v))) = v on
       every query, across every interconnect. *)
    if not (Bytes.equal plain expected) then
      raise (Corrupt_pipeline "decrypted value differs from what was inserted")

(* The §2.1.2 workload: 50%/50% insert and query. Returns average
   latency in cycles per operation. *)
let run t ~core ~ops ~len =
  let cpu = Kernel.cpu t.kernel ~core in
  let start = Cpu.cycles cpu in
  for i = 1 to ops do
    let t0 = Cpu.cycles cpu in
    if i land 1 = 0 then query t ~core ~len else insert t ~core ~len;
    Sky_trace.Trace.record_latency
      (Printf.sprintf "kv.%s.op" (config_name t.config))
      (Cpu.cycles cpu - t0)
  done;
  (Cpu.cycles cpu - start) / ops

let retry_stats t = t.rstats
