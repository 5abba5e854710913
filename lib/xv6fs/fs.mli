(** The xv6-style log-protected file system (§6.5 ports "a log-based file
    system named xv6fs").

    Inodes with 12 direct, one single-indirect and one double-indirect
    block pointers; a flat root directory; a block bitmap; and every
    mutating operation wrapped in one write-ahead-log transaction, so a
    crash at any block write leaves committed operations intact and
    uncommitted ones invisible (property-tested in test/test_fs.ml).

    A single big lock serializes all operations — deliberately: "since
    the xv6fs does not support multithreading, we use one big lock in the
    file system, that is the reason why the scalability is so bad"
    (§6.5). *)

type t

exception Fs_error of string

val bsize : int
(** 1024-byte blocks. *)

val ndirect : int
val nindirect : int

val max_file_blocks : int
(** 12 + 256 + 256² blocks (~64 MiB) with the double-indirect pointer —
    extended beyond xv6 so the 10,000-record YCSB table fits. *)

val root_inum : int

val mkfs :
  Sky_ukernel.Kernel.t ->
  Sky_blockdev.Disk.t ->
  core:int ->
  ?size:int ->
  ?ninodes:int ->
  unit ->
  unit
(** Format the device: superblock, an empty 30-block log, free inodes,
    bitmap with the metadata marked used, root directory. *)

val mount : Sky_ukernel.Kernel.t -> Sky_blockdev.Disk.t -> core:int -> t
(** Read the superblock and {e replay the log} (crash recovery), then
    attach a fresh buffer cache. *)

val create : t -> core:int -> string -> int
(** Create (or return the existing) file named in the root directory;
    returns the inode number. Names are 1–14 bytes. *)

val lookup : t -> core:int -> string -> int option
val file_size : t -> core:int -> inum:int -> int

val read : t -> core:int -> inum:int -> off:int -> len:int -> bytes
(** Short reads past EOF; holes read as zeros. *)

val write : t -> core:int -> inum:int -> off:int -> bytes -> unit
(** Extends the file (allocating data/indirect blocks) as needed; the
    whole call is one committed transaction. *)

val unlink : t -> core:int -> string -> bool
(** Remove the directory entry, free every data block and the inode.
    Returns false if the name does not exist. *)

val list_dir : t -> core:int -> (int * string) list
(** The root directory's live entries, as (inode, name), in slot order. *)

val lock : t -> Sky_ukernel.Lock.t
(** The big lock, exposed for the contention experiments. *)

val log_commits : t -> int

(** {2 Introspection (for {!Fsck} and tests)} *)

type itype = T_free | T_dir | T_file

type dinode = {
  mutable typ : itype;
  mutable nlink : int;
  mutable size : int;
  addrs : int array;  (** 12 direct + single-indirect + double-indirect *)
}

val superblock : t -> Superblock.t

val inspect_inode : t -> core:int -> int -> dinode
(** Raw on-disk inode (under the big lock). *)

val inspect_block : t -> core:int -> int -> bytes
(** Raw block contents through the buffer cache (under the big lock). *)
