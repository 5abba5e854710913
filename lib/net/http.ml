(** A deliberately tiny HTTP-style request/response codec.

    Requests are single-line, [CRLF]-free, whole-packet:

    - [GET /kv/<key>]          — KV lookup
    - [PUT /kv/<key> <value>]  — KV store (value = rest of line)
    - [GET /fs/<name>]         — read a whole file from the FS backend

    Responses are [<status> <body>] with numeric status (200/404/400/500).
    Parsing and serialization are pure; the server charges cycles for
    them separately (per-byte, like real header parsing). *)

exception Bad_request of string

(* The codec works on the wire bytes in place: prefix tests compare
   bytes, numbers are read digit by digit, and a parse answers offsets,
   so nothing is copied out of a request or a response. *)

let has_prefix p b off =
  let n = String.length p in
  Bytes.length b - off >= n
  &&
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b (off + !i) = String.unsafe_get p !i do
    incr i
  done;
  !i = n

(* Index of the first [' '] at or after [from], or -1. *)
let space_from b from =
  let i = ref from and n = Bytes.length b in
  while !i < n && Bytes.unsafe_get b !i <> ' ' do
    incr i
  done;
  if !i < n then !i else -1

(* [int_of_string_opt] of [b]'s bytes [off, off+len), [None] as -1 —
   callers only accept nonnegative values from it. Plain decimal digit
   runs short enough not to overflow are read in place; anything else
   (sign, radix prefix, underscores, overflow) takes the stdlib path,
   so the accepted language is exactly [int_of_string_opt]'s. *)
let int_at b off len =
  let all_digits =
    len > 0 && len <= 18
    &&
    let i = ref off in
    while !i < off + len && Bytes.unsafe_get b !i >= '0' && Bytes.unsafe_get b !i <= '9' do
      incr i
    done;
    !i = off + len
  in
  if all_digits then begin
    let v = ref 0 in
    for i = off to off + len - 1 do
      v := (!v * 10) + (Char.code (Bytes.unsafe_get b i) - 48)
    done;
    !v
  end
  else
    match int_of_string_opt (Bytes.sub_string b off len) with
    | Some v when v >= 0 -> v
    | Some _ | None -> -1

let kv_get_prefix = "GET /kv/"
let kv_put_prefix = "PUT /kv/"
let fs_get_prefix = "GET /fs/"
let prefix_len = 8

(* ---- requests ---- *)

(* A request may carry a relative deadline as a [TTL<cycles> ] prefix —
   written only when the client sets one, so the plain wire format (and
   every existing trace) is unchanged. The server parses past the prefix
   and converts the TTL to an absolute deadline against the request's
   arrival time. *)

(* The TTL prefix (if any), the method and path prefix and the key, with
   [extra] bytes left for a PUT's value. *)
let write ~ttl prefix key ~extra =
  let head = if ttl > 0 then 3 + Dec.length ttl + 1 else 0 in
  let k = String.length key in
  let b = Bytes.create (head + prefix_len + k + extra) in
  if ttl > 0 then begin
    Bytes.blit_string "TTL" 0 b 0 3;
    Bytes.set b (Dec.blit ttl b 3) ' '
  end;
  Bytes.blit_string prefix 0 b head prefix_len;
  Bytes.blit_string key 0 b (head + prefix_len) k;
  b

let kv_get_request ~ttl key = write ~ttl kv_get_prefix key ~extra:0
let fs_get_request ~ttl name = write ~ttl fs_get_prefix name ~extra:0

let kv_put_request ~ttl key value =
  let v = Bytes.length value in
  let b = write ~ttl kv_put_prefix key ~extra:(1 + v) in
  let sp = Bytes.length b - v - 1 in
  Bytes.set b sp ' ';
  Bytes.blit value 0 b (sp + 1) v;
  b

(* The TTL a payload carries, -1 when it carries none (no prefix, or
   not a positive number): a plain request costs a three-byte compare. *)
let ttl payload =
  if not (has_prefix "TTL" payload 0) then -1
  else
    let sp = space_from payload 0 in
    if sp < 0 then -1
    else match int_at payload 3 (sp - 3) with n when n > 0 -> n | _ -> -1

let request_off payload = if ttl payload < 0 then 0 else space_from payload 0 + 1

let kv_get = -1
let fs_get = -2

let parse_request b ~off =
  let n = Bytes.length b in
  if has_prefix kv_get_prefix b off then begin
    if n - off = prefix_len then raise (Bad_request "empty key");
    kv_get
  end
  else if has_prefix kv_put_prefix b off then begin
    let sp = space_from b (off + prefix_len) in
    if sp < 0 then raise (Bad_request "PUT without value");
    if sp = off + prefix_len then raise (Bad_request "empty key");
    sp
  end
  else if has_prefix fs_get_prefix b off then begin
    if n - off = prefix_len then raise (Bad_request "empty path");
    fs_get
  end
  else raise (Bad_request (Bytes.sub_string b off (Int.min (n - off) 32)))

(* ---- responses ---- *)

let response ~status body ~off ~len =
  let head = Dec.length status + 1 in
  let b = Bytes.create (head + len) in
  Bytes.set b (Dec.blit status b 0) ' ';
  Bytes.blit body off b head len;
  b

let status b =
  let sp = space_from b 0 in
  if sp < 0 then raise (Bad_request "malformed response");
  match int_at b 0 sp with
  | -1 -> (
    (* A negative status is well-formed; only the in-place reader
       reserves -1. *)
    match int_of_string_opt (Bytes.sub_string b 0 sp) with
    | Some n -> n
    | None -> raise (Bad_request "non-numeric status"))
  | n -> n

let body_is b expect =
  let sp = space_from b 0 in
  let n = Bytes.length expect in
  sp >= 0
  && Bytes.length b - sp - 1 = n
  &&
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b (sp + 1 + !i) = Bytes.unsafe_get expect !i do
    incr i
  done;
  !i = n

let stored = Bytes.unsafe_of_string "stored"
