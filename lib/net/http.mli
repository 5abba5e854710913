(** Tiny single-line HTTP-style codec: [GET /kv/<key>],
    [PUT /kv/<key> <value>], [GET /fs/<name>]; responses are
    [<status> <body>]. Pure functions — the server charges parse cycles
    itself. *)

type request =
  | Kv_get of string
  | Kv_put of string * bytes
  | Fs_get of string

type response = { status : int; body : bytes }

exception Bad_request of string

val parse_request : bytes -> request
val serialize_request : request -> bytes
val parse_response : bytes -> response
val serialize_response : response -> bytes

val ok : bytes -> response
val not_found : response
val bad_request : response
val server_error : response

val stored : response
(** 200 [stored] — the reply to a PUT the store accepted. Shared, like
    the other constant responses: its body must not be mutated. *)

val service_unavailable : response
(** 503 — the typed load-shed rejection (queue full, deadline blown). *)

val forbidden : response
(** 403 — the request's capability was denied by every receiver. *)

val with_ttl : ttl:int -> bytes -> bytes
(** Prefix a serialized request with a relative deadline ([TTL<cycles> ]).
    Requests without the prefix are wire-identical to the old format. *)

val ttl : bytes -> int
(** The relative deadline a payload's TTL prefix carries, or -1 when it
    carries none (no prefix, or not a positive number). *)

val strip_ttl : bytes -> bytes
(** The bare request payload: a copy without the prefix when {!ttl}
    finds one, the payload itself otherwise. *)
