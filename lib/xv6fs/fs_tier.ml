open Sky_ukernel
open Sky_blockdev
module Graph = Sky_mesh.Service_graph
module Subkernel = Sky_core.Subkernel

let format kernel ~blocks =
  let ramdisk = Ramdisk.create kernel.Kernel.machine ~nblocks:blocks in
  Fs.mkfs kernel (Disk.direct kernel ramdisk) ~core:0 ~size:blocks ~ninodes:64 ();
  ramdisk

type t = {
  graph : Graph.t;
  kernel : Kernel.t;
  dev : Disk.t;  (** the FS process's edge to the disk server *)
  cell : Fs.t ref;
  stale : bool ref;  (** a remount gave up: the next request remounts *)
  server : Graph.server;
}

(* A tier whose last remount gave up remounts before it is used again. *)
let refresh kernel dev cell stale ~core =
  if !stale then begin
    cell := Fs.mount kernel dev ~core;
    stale := false
  end

let create graph kernel ramdisk ~disk ~fs =
  let connections = Sky_sim.Machine.n_cores kernel.Kernel.machine in
  let disk_server = Graph.serve graph ~connections ~core:2 disk (Disk.handler kernel ramdisk) in
  Graph.name graph ~core:0 ~uri:"blk://" disk_server;
  let dev = Disk.over_call (Graph.dep_edge graph ~client:fs disk_server) in
  let cell = ref (Fs.mount kernel dev ~core:0) and stale = ref false in
  (* The cell is the handler's indirection: a remount swaps the Fs.t
     without re-registering the server. *)
  let serve ~core msg =
    refresh kernel dev cell stale ~core;
    Fs_iface.server_handler !cell ~core msg
  in
  let server = Graph.serve graph ~connections ~deps:[ disk_server ] ~core:1 fs serve in
  { graph; kernel; dev; cell; stale; server }

let server t = t.server
let fs t =
  refresh t.kernel t.dev t.cell t.stale ~core:0;
  !(t.cell)
let cell t = t.cell

let on_crash t _ =
  let rec remount n =
    match Fs.mount t.kernel t.dev ~core:0 with
    | fs ->
      t.cell := fs;
      t.stale := false
    | exception Subkernel.Server_crashed { server_id } ->
      Graph.restart t.graph ~server_id;
      if n > 0 then remount (n - 1)
      else begin
        t.stale := true;
        raise (Sky_core.Retry.Gave_up (Subkernel.Crashed { server_id }))
      end
  in
  remount 3
