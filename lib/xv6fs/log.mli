(** Write-ahead log (xv6's [log.c]): transactions are all-or-nothing
    across crashes.

    [begin_op] opens a transaction; {!write}s are absorbed into a pending
    set (writing the same block twice logs it once); {!end_op} commits:
    (1) copy every dirty block to the log area, (2) write the header
    block — the commit point, (3) install the blocks to their home
    locations, (4) clear the header. {!recover}, run at mount, replays a
    committed-but-uninstalled transaction and discards anything that
    never reached step 2. The crash-safety property is qcheck-tested in
    test/test_fs.ml by injecting device failures at arbitrary write
    counts. *)

type t

exception Log_full
exception Nested_transaction

val create : Sky_blockdev.Disk.t -> Superblock.t -> Bcache.t -> t

val begin_op : t -> unit
(** @raise Nested_transaction if one is already open. *)

val write : t -> int -> bytes -> unit
(** Record a block write in the transaction (xv6's [log_write]).
    @raise Log_full past {!max_blocks} distinct blocks. *)

val read : t -> Sky_sim.Cpu.t -> core:int -> int -> bytes
(** Transaction-aware read: pending writes are visible to the
    transaction that made them; otherwise through the buffer cache. *)

val end_op : t -> Sky_sim.Cpu.t -> core:int -> unit
(** Commit (the four steps above); a no-op commit for read-only
    transactions. *)

val abort : t -> unit
(** Abandon the open transaction (error mid-operation): nothing reached
    the log header, so nothing persists. *)

val recover : Sky_blockdev.Disk.t -> Superblock.t -> core:int -> int
(** Replay at mount; returns the number of replayed blocks. *)

val commits : t -> int
