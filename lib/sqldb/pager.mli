(** Database pager: fixed-size pages of one FS file, with an internal
    LRU page cache backed by simulated guest frames (so hits still have
    real, warm micro-architectural cost).

    Writes are write-through: the FS sees every page write — that FS
    traffic is exactly what Table 4 measures across transports. *)

type t

val page_size : int
(** 1024 (= the FS block size). *)

val create :
  Sky_ukernel.Kernel.t -> Sky_xv6fs.Fs_iface.t -> core:int -> inum:int -> t

val read : t -> core:int -> int -> bytes
(** Cached read of one page; misses go to the FS (zero-filled past EOF). *)

val write : t -> core:int -> int -> bytes -> unit
(** Write-through; updates the cache. *)

val alloc_page : t -> core:int -> int
(** Append a zeroed page; returns its number. *)

val hits : t -> int
