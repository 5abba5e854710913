(** A deliberately tiny HTTP-style request/response codec.

    Requests are single-line, [CRLF]-free, whole-packet:

    - [GET /kv/<key>]          — KV lookup
    - [PUT /kv/<key> <value>]  — KV store (value = rest of line)
    - [GET /fs/<name>]         — read a whole file from the FS backend

    Responses are [<status> <body>] with numeric status (200/404/400/500).
    Parsing and serialization are pure; the server charges cycles for
    them separately (per-byte, like real header parsing). *)

type request =
  | Kv_get of string
  | Kv_put of string * bytes
  | Fs_get of string

type response = { status : int; body : bytes }

exception Bad_request of string

(* The codec works on the wire bytes in place: prefix tests compare
   bytes, numbers are read digit by digit, and only the fields a caller
   keeps (key, value, body) are copied out. *)

let has_prefix p b =
  let n = String.length p in
  Bytes.length b >= n
  &&
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b !i = String.unsafe_get p !i do
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

let parse_request b =
  let n = Bytes.length b in
  if has_prefix kv_get_prefix b then begin
    if n = 8 then raise (Bad_request "empty key");
    Kv_get (Bytes.sub_string b 8 (n - 8))
  end
  else if has_prefix kv_put_prefix b then begin
    let sp = space_from b 8 in
    if sp < 0 then raise (Bad_request "PUT without value");
    if sp = 8 then raise (Bad_request "empty key");
    Kv_put (Bytes.sub_string b 8 (sp - 8), Bytes.sub b (sp + 1) (n - sp - 1))
  end
  else if has_prefix fs_get_prefix b then begin
    if n = 8 then raise (Bad_request "empty path");
    Fs_get (Bytes.sub_string b 8 (n - 8))
  end
  else raise (Bad_request (Bytes.sub_string b 0 (Int.min n 32)))

let prefixed p s =
  let b = Bytes.create (String.length p + String.length s) in
  Bytes.blit_string p 0 b 0 (String.length p);
  Bytes.blit_string s 0 b (String.length p) (String.length s);
  b

let serialize_request = function
  | Kv_get key -> prefixed kv_get_prefix key
  | Kv_put (key, value) ->
    let k = String.length key in
    let b = Bytes.create (8 + k + 1 + Bytes.length value) in
    Bytes.blit_string kv_put_prefix 0 b 0 8;
    Bytes.blit_string key 0 b 8 k;
    Bytes.set b (8 + k) ' ';
    Bytes.blit value 0 b (9 + k) (Bytes.length value);
    b
  | Fs_get name -> prefixed fs_get_prefix name

let serialize_response { status; body } =
  let head = Dec.length status + 1 in
  let b = Bytes.create (head + Bytes.length body) in
  Bytes.set b (Dec.blit status b 0) ' ';
  Bytes.blit body 0 b head (Bytes.length body);
  b

let parse_response b =
  let sp = space_from b 0 in
  if sp < 0 then raise (Bad_request "malformed response");
  let status =
    match int_at b 0 sp with
    | -1 -> (
      (* A negative status is well-formed; only the in-place reader
         reserves -1. *)
      match int_of_string_opt (Bytes.sub_string b 0 sp) with
      | Some n -> n
      | None -> raise (Bad_request "non-numeric status"))
    | n -> n
  in
  { status; body = Bytes.sub b (sp + 1) (Bytes.length b - sp - 1) }

let ok body = { status = 200; body }
let not_found = { status = 404; body = Bytes.empty }
let bad_request = { status = 400; body = Bytes.empty }
let server_error = { status = 500; body = Bytes.empty }
let stored = { status = 200; body = Bytes.unsafe_of_string "stored" }
let service_unavailable = { status = 503; body = Bytes.empty }
let forbidden = { status = 403; body = Bytes.empty }

(* ---- deadline propagation ---- *)

(* A request may carry a relative deadline as a [TTL<cycles> ] prefix —
   serialized only when the client sets one, so the plain wire format
   (and every existing trace) is unchanged. The server strips the prefix
   before parsing and converts the TTL to an absolute deadline against
   the request's arrival time. *)

let with_ttl ~ttl payload =
  if ttl <= 0 then invalid_arg "Http.with_ttl";
  let head = 3 + Dec.length ttl + 1 in
  let b = Bytes.create (head + Bytes.length payload) in
  Bytes.blit_string "TTL" 0 b 0 3;
  Bytes.set b (Dec.blit ttl b 3) ' ';
  Bytes.blit payload 0 b head (Bytes.length payload);
  b

(* The TTL a payload carries, -1 when it carries none (no prefix, or
   not a positive number): read in place, so a plain request costs a
   three-byte compare and no allocation. *)
let ttl payload =
  if not (has_prefix "TTL" payload) then -1
  else
    let sp = space_from payload 0 in
    if sp < 0 then -1
    else match int_at payload 3 (sp - 3) with n when n > 0 -> n | _ -> -1

let strip_ttl payload =
  if ttl payload < 0 then payload
  else
    let sp = space_from payload 0 in
    Bytes.sub payload (sp + 1) (Bytes.length payload - sp - 1)
