(** Tiny single-line HTTP-style codec: [GET /kv/<key>],
    [PUT /kv/<key> <value>], [GET /fs/<name>]; responses are
    [<status> <body>]. It works on the wire bytes in place: requests and
    responses are written straight from their parts, and parsed as
    offsets into the bytes they arrived in. Pure functions — the server
    charges parse cycles itself. *)

exception Bad_request of string

(** {2 Requests} *)

val kv_get_request : ttl:int -> string -> bytes
val kv_put_request : ttl:int -> string -> bytes -> bytes
val fs_get_request : ttl:int -> string -> bytes
(** A request's wire bytes (key or name, then a PUT's value), prefixed
    with a relative deadline [TTL<ttl> ] when [ttl > 0]. Without the
    prefix they are the plain format. *)

val ttl : bytes -> int
(** The relative deadline a payload's TTL prefix carries, or -1 when it
    carries none (no prefix, or not a positive number). *)

val request_off : bytes -> int
(** Where the request starts: just past the TTL prefix {!ttl} finds, 0
    when it finds none. *)

val prefix_len : int
(** 8: the method and path prefix every request starts with; its key or
    name begins this far past the request's start. *)

val kv_get : int
val fs_get : int

val parse_request : bytes -> off:int -> int
(** Parse the request that starts at [off] and runs to the end of the
    bytes, in place: {!kv_get} (-1) or {!fs_get} (-2) for a GET, whose
    key or name runs from [off + prefix_len] to the end; for a PUT the
    index of the space that ends its key, its value running from there
    + 1 to the end. Raises [Bad_request] on anything else. *)

(** {2 Responses} *)

val response : status:int -> bytes -> off:int -> len:int -> bytes
(** The wire bytes of a response whose body is [len] bytes of the given
    bytes from [off]. *)

val status : bytes -> int
(** A response's status, read in place. Raises [Bad_request] when it
    has no space or a non-numeric status. *)

val body_is : bytes -> bytes -> bool
(** [body_is resp expect]: [resp]'s body (everything after its first
    space) equals [expect], compared where it lies. *)

val stored : bytes
(** [stored] — the body answering a PUT the store accepted. Shared: it
    must not be mutated. *)
