(** Global state for the translation-acceleration layer: the kill
    switch for all acceleration structures (paging-structure caches and
    the EPT walk cache) and the mutation epoch that lazily invalidates
    every one of them when a mapping changes underneath.
    The epoch is scoped: parallel shards each hold their own via
    {!with_scope} so cross-shard mutations cannot flush each other. *)

val is_enabled : unit -> bool

val set_enabled : bool -> unit
(** Toggle all acceleration structures. Disabling restores the
    cache-free reference walker bit for bit; toggling also bumps the
    epoch so no entry survives a disable/enable round trip. *)

val current_epoch : unit -> int

val bump : unit -> unit
(** Record a mapping mutation (EPT unmap/remap of a live leaf, guest
    page-table unmap/protect/overwrite, table destruction). Every
    translation structure self-flushes on its next use. *)

type scope
(** One mutation-epoch cell. Single-machine runs use the process-wide
    default; the parallel scheduler gives each shard its own. *)

val fresh_scope : unit -> scope

val with_scope : scope -> (unit -> 'a) -> 'a
(** Run a thunk with {!current_epoch}/{!bump} acting on [scope] in this
    domain (exception-safe; the binding is domain-local). *)
