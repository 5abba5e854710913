(** SQLite3-like storage engine facade: one keyed table in an FS file,
    with a rollback-journal file protecting every write transaction and
    an exclusive writer lock held across each statement.

    This is the shape that makes the paper's evaluation behave:
    Insert/Update/Delete run a full journal cycle — header write,
    original-page image write, table page write(s), header reset — each
    an FS call, each FS call a logged multi-block disk transaction, each
    boundary crossing an IPC; Query is served almost entirely from the
    pager's internal page cache ("the SQLite3 has an internal cache to
    handle the recent read requests, which thus avoids a large number of
    IPC operations", §6.5). *)

type t

val create :
  Sky_ukernel.Kernel.t ->
  Sky_xv6fs.Fs_iface.t ->
  core:int ->
  name:string ->
  value_size:int ->
  t
(** Create the table file and its journal on the given FS view. *)

val open_ :
  Sky_ukernel.Kernel.t -> Sky_xv6fs.Fs_iface.t -> core:int -> name:string -> t
(** Opens the table, first rolling back any hot journal (a transaction
    that died mid-write) — SQLite's crash-recovery behaviour. *)

val insert : t -> core:int -> key:int -> value:bytes -> unit
val update : t -> core:int -> key:int -> value:bytes -> bool
val query : t -> core:int -> key:int -> bytes option
val delete : t -> core:int -> key:int -> bool

val pager : t -> Pager.t
val tree : t -> Btree.t

val name : t -> string
(** The table name the database was created with. *)
