(** The three-process KV pipeline of Figure 1 (client → RC4 encryption
    server → KV store), wired over every interconnect of Figures 2/8:

    - [Baseline]: one address space, plain function calls;
    - [Delay]: function calls plus a 986-cycle busy-wait per server call
      (the direct cost of one IPC roundtrip) — isolating IPC's
      {e indirect} cost as the remaining gap to [Ipc_local] (§2.1.2);
    - [Ipc_local] / [Ipc_cross]: separate processes over the kernel's
      synchronous IPC, servers co-located or pinned to other cores;
    - [Skybridge]: separate processes over [direct_server_call]. *)

type config = Baseline | Delay | Ipc_local | Ipc_cross | Skybridge

val config_name : config -> string

type t

val create :
  ?sb:Sky_core.Subkernel.t ->
  ?mesh:Sky_mesh.Mesh.t ->
  ?retry:Sky_core.Retry.stats ->
  Sky_ukernel.Kernel.t ->
  config ->
  t
(** Spawns the processes, then declares the two servers and the client's
    edges in one {!Sky_mesh.Service_graph} over the config's transport
    ([Ipc_cross] pins the encryption server to core 1 and the store to
    core 2). [Skybridge] requires [~sb]. With [retry] the client wraps
    every server call in {!Sky_core.Retry.call}, counted in that census:
    bounded retry with exponential backoff, server restart on crash,
    slowpath degradation on revocation. With [mesh] the servers are
    named [enc://] and [kv://] and the client calls by URI under
    capability-granted bindings — the service-mesh wiring of the
    composed scenarios (the default flat wiring is kept for the pinned
    Figure 2/8 measurements). *)

val insert : t -> core:int -> len:int -> unit
(** One insert: compose a [len]-byte key and value, encrypt via the
    encryption server, store the ciphertext in the KV server. *)

exception Corrupt_pipeline of string

val query : t -> core:int -> len:int -> unit
(** One query of a previously inserted key: fetch ciphertext, decrypt,
    and verify the plaintext matches what {!insert} stored — every run is
    a data-integrity check of the whole interconnect.
    @raise Corrupt_pipeline on mismatch. *)

val run : t -> core:int -> ops:int -> len:int -> int
(** The §2.1.2 workload (50% insert / 50% query); returns the average
    latency per operation in cycles. *)
