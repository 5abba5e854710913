(** The KV store's wire protocol and its server-side handler, shared by
    the Figure-1 pipeline and the web stack's [kv://] backend.

    Messages: ['I'] inserts one key, ['Q'] queries one, and ['B']
    carries a whole list of operations in one server crossing. *)

type op = Op_put of string * bytes | Op_get of string
(** One operation of a batch. *)

type reply = R_stored of bool | R_value of bytes option
(** Its reply, in the batch's order. *)

val insert_msg : key:string -> value:bytes -> bytes
(** ['I']: the handler answers ["ok"]. *)

val query_msg : key:string -> bytes
(** ['Q']: the handler answers the value, or empty bytes on a miss. *)

val batch_msg : op list -> bytes
(** ['B']: every operation in one message. *)

val batch_replies : bytes -> reply list
(** Decode the handler's answer to {!batch_msg}, one reply per op. *)

val handler : Kv_server.t -> Sky_ukernel.Kernel.t -> Sky_kernels.Ipc.handler
(** Serve ['I'], ['Q'] and ['B'] on the store in place (the
    {!Kv_server} in-place forms), charged on the calling core. A batch's
    reply is built in a buffer the handler reuses and copied out once.
    The caller charges the server's instruction working set. *)
