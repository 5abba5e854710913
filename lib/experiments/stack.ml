(** The multi-tier SQLite stack of §6.5: client(+DB) → xv6fs server →
    RAM-disk server, assembled over each interconnect in the evaluation:

    - [Ipc { st = true }]: one server working thread each, pinned to
      dedicated cores (the client reaches them via cross-core IPC);
    - [Ipc { st = false }] (MT-Server): server threads pinned per core,
      every call takes the local path;
    - [Skybridge]: direct server calls; the disk is a dependency of the
      FS, so its EPT rides in every client's EPTP list. *)

open Sky_ukernel
open Sky_xv6fs
module Graph = Sky_mesh.Service_graph

type transport = Ipc of { st : bool } | Skybridge

type t = {
  machine : Sky_sim.Machine.t;
  kernel : Kernel.t;
  client : Proc.t;
  tier : Fs_tier.t;
  db : Sky_sqldb.Db.t;
}

let fs t = Fs_tier.fs t.tier

(* The transport [link kernel] returns is made after the spawns: a
   subkernel's boot allocates frames. *)
let assemble ~variant ~cores ~disk_blocks link =
  let machine = Sky_sim.Machine.create ~cores ~mem_mib:128 () in
  let kernel = Kernel.create ~config:(Config.default variant) machine in
  let ramdisk = Fs_tier.format kernel ~blocks:disk_blocks in
  let client = Kernel.spawn kernel ~name:"client" in
  let fs = Kernel.spawn kernel ~name:"xv6fs" in
  let disk = Kernel.spawn kernel ~name:"blockdev" in
  let handles, transport = link kernel in
  let graph = Graph.create kernel transport in
  let tier = Fs_tier.create graph kernel ramdisk ~disk ~fs in
  let call = Graph.edge graph ~on_crash:(Fs_tier.on_crash tier) ~client (Fs_tier.server tier) in
  Kernel.context_switch kernel ~core:0 client;
  let db =
    Sky_sqldb.Db.create kernel (Fs_iface.over_call call) ~core:0 ~name:"sqlite3" ~value_size:100
  in
  ({ machine; kernel; client; tier; db }, handles)

let build ?(variant = Config.Sel4) ?(cores = 8) ?(disk_blocks = 16384) ~transport () =
  fst
    (assemble ~variant ~cores ~disk_blocks (fun kernel ->
         match transport with
         | Ipc { st } -> ((), Graph.Ipc { pinned = st })
         | Skybridge -> ((), Graph.Skybridge (Sky_core.Subkernel.init kernel, Graph.Flat))))

let build_resilient ~cores ~disk_blocks stats =
  assemble ~variant:Config.Sel4 ~cores ~disk_blocks (fun kernel ->
      let sb = Sky_core.Subkernel.init kernel in
      (sb, Graph.Skybridge (sb, Graph.Retry stats)))

(* Make the client current on the cores a multi-threaded run will use. *)
let spread_client t ~threads =
  for core = 0 to threads - 1 do
    Kernel.context_switch t.kernel ~core t.client
  done
