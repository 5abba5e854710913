(** The blockdev → xv6fs tier of the SQLite stack (§6.5), the web stack
    and the service-mesh scenario, declared once in a
    {!Sky_mesh.Service_graph}: the RAM-disk server, the FS mounted over
    its edge, the FS server behind a cell that recovery swaps, and the
    one remount loop. *)

val format : Sky_ukernel.Kernel.t -> blocks:int -> Sky_blockdev.Ramdisk.t
(** A RAM disk holding a fresh xv6fs image, written before any server
    exists. *)

type t

val create :
  Sky_mesh.Service_graph.t ->
  Sky_ukernel.Kernel.t ->
  Sky_blockdev.Ramdisk.t ->
  disk:Sky_ukernel.Proc.t ->
  fs:Sky_ukernel.Proc.t ->
  t
(** Serve the disk (placed on core 2, named [blk://]), bind the FS
    process to it and mount over that edge, then serve the FS (core 1,
    the disk its dependency; a mesh caller names it). Each SkyBridge
    server takes one connection per core. *)

val server : t -> Sky_mesh.Service_graph.server

val fs : t -> Fs.t
(** The FS the server runs on (the post-recovery one). *)

val cell : t -> Fs.t ref

val on_crash : t -> int -> unit
(** An FS edge's [on_crash]: a crash along client → FS → disk leaves the
    FS's memory unusable, so remount, replaying or rolling back the
    on-disk log. A disk crashing meanwhile is restarted, three times at
    most; past that the tier stays stale (its next request, or {!fs},
    remounts first) and the call ends in {!Sky_core.Retry.Gave_up}. *)
