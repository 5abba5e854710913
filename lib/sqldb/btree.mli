(** B+tree over the pager: integer keys, fixed-size values, chained
    leaves for in-order scans.

    Page 0 of the table file is the header (magic, root page, value
    size, record count); every other page is an internal node or a
    leaf. Deletion is lazy (no rebalancing). Model-tested against
    [Hashtbl] in test/test_sqldb.ml. *)

type t

exception Corrupt of string

val create : Pager.t -> core:int -> value_size:int -> t
(** Initialize a fresh table (header + one empty leaf) in an empty file.
    [value_size] must be in (0, 512]. *)

val open_ : Pager.t -> core:int -> t
(** Load an existing table; raises {!Corrupt} on a bad header. *)

val insert : t -> core:int -> key:int -> value:bytes -> unit
(** Insert or overwrite. Values shorter than [value_size] are
    zero-padded; longer ones are truncated. *)

val update : t -> core:int -> key:int -> value:bytes -> bool
(** False when the key is absent (no insertion). *)

val query : t -> core:int -> int -> bytes option
(** The stored (padded) value. *)

val delete : t -> core:int -> key:int -> bool

val count : t -> int
(** Records currently stored (held in memory between {!flush}es). *)

val flush : t -> core:int -> unit
(** Persist the header (root + count). *)

val keys : t -> core:int -> int list

val find_leaf : t -> core:int -> int -> int list * int * bytes
(** [find_leaf t ~core key] = (internal-page path, leaf page number,
    leaf contents) — exposed so the DB layer can journal the page a
    statement is about to dirty. *)
