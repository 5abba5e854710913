(** The KV store's wire protocol and its server-side handler, shared by
    the Figure-1 pipeline and the web stack's [kv://] backend.

    Messages: ['I'] inserts one key, ['Q'] queries one, and ['B']
    carries a whole batch of operations in one server crossing. Every
    message is written from its caller's key and value slices, and a
    ['B'] answer is read in place. *)

val insert_msg :
  bytes -> key_off:int -> key_len:int -> bytes -> value_off:int -> value_len:int -> bytes
(** ['I'] for the key slice of the first bytes and the value slice of
    the second: the handler answers ["ok"] (["err"] for a new key once
    the table is full). *)

val query_msg : bytes -> key_off:int -> key_len:int -> bytes
(** ['Q']: the handler answers the value, or empty bytes on a miss. *)

type batch
(** A ['B'] message being assembled, in a buffer reused across
    batches. *)

val batch : unit -> batch

val add_put :
  batch -> bytes -> key_off:int -> key_len:int -> bytes -> value_off:int -> value_len:int -> unit

val add_get : batch -> bytes -> key_off:int -> key_len:int -> unit

val batch_msg : batch -> bytes
(** The ['B'] message of every operation added since the last one, in
    order; the batch starts over empty. *)

val reply_stored : int
val reply_miss : int

val batch_replies : bytes -> off:int array -> len:int array -> int
(** Read the handler's answer to a ['B'] message in place and return
    its reply count: reply [i] is a stored PUT when [len.(i)] is
    {!reply_stored}, a GET that missed when it is {!reply_miss}, and
    otherwise a hit whose value is the [len.(i)] bytes of the answer
    from [off.(i)]. Raises [Invalid_argument] on an unknown tag or more
    replies than the arrays hold. *)

val refused : bytes -> bool
(** Whether the answer to a ['B'] message is ["err"]: the batch was
    refused whole and none of its ops ran. *)

val handler : Kv_server.t -> Sky_ukernel.Kernel.t -> Sky_kernels.Ipc.handler
(** Serve ['I'], ['Q'] and ['B'] on the store in place (the
    {!Kv_server} in-place forms), charged on the calling core. A batch's
    reply is built in a buffer the handler reuses and copied out once.
    A malformed message is answered ["err"], and so is a batch without
    room for its new keys, before any of its ops runs. The caller
    charges the server's instruction working set. *)
