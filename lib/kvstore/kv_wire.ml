(* The KV store's wire protocol: one message per operation ('I', 'Q')
   or a whole batch in one crossing ('B'), and the server-side handler
   that serves them on the store in place. *)

open Sky_ukernel

(* Messages are written straight from the caller's key and value
   slices. *)
let insert_msg key ~key_off ~key_len value ~value_off ~value_len =
  let b = Bytes.create (4 + key_len + value_len) in
  Bytes.set b 0 'I';
  Bytes.set b 1 '\000';
  Bytes.set_uint16_le b 2 key_len;
  Bytes.blit key key_off b 4 key_len;
  Bytes.blit value value_off b (4 + key_len) value_len;
  b

let query_msg key ~key_off ~key_len =
  let b = Bytes.create (4 + key_len) in
  Bytes.set b 0 'Q';
  Bytes.set b 1 '\000';
  Bytes.set_uint16_le b 2 key_len;
  Bytes.blit key key_off b 4 key_len;
  b

(* 'B': [count:u16] then per op 'I'[klen:u16][vlen:u16]key value or
   'Q'[klen:u16]key — a whole request batch in one server crossing. The
   reply mirrors it: [count:u16] then 's' (stored), 'm' (miss) or
   'v'[len:u16]bytes per op, in order. A batch is assembled in a buffer
   its owner reuses, behind the 4-byte header {!batch_msg} writes. *)
type batch = { mutable buf : bytes; mutable len : int; mutable count : int }

let batch () = { buf = Bytes.create 256; len = 4; count = 0 }

let reserve b n =
  let size = Bytes.length b.buf in
  if b.len + n > size then b.buf <- Bytes.extend b.buf 0 (Int.max (b.len + n - size) size)

let add_put b key ~key_off ~key_len value ~value_off ~value_len =
  reserve b (5 + key_len + value_len);
  let o = b.len in
  Bytes.set b.buf o 'I';
  Bytes.set_uint16_le b.buf (o + 1) key_len;
  Bytes.set_uint16_le b.buf (o + 3) value_len;
  Bytes.blit key key_off b.buf (o + 5) key_len;
  Bytes.blit value value_off b.buf (o + 5 + key_len) value_len;
  b.len <- o + 5 + key_len + value_len;
  b.count <- b.count + 1

let add_get b key ~key_off ~key_len =
  reserve b (3 + key_len);
  let o = b.len in
  Bytes.set b.buf o 'Q';
  Bytes.set_uint16_le b.buf (o + 1) key_len;
  Bytes.blit key key_off b.buf (o + 3) key_len;
  b.len <- o + 3 + key_len;
  b.count <- b.count + 1

let batch_msg b =
  Bytes.set b.buf 0 'B';
  Bytes.set b.buf 1 '\000';
  Bytes.set_uint16_le b.buf 2 b.count;
  let msg = Bytes.sub b.buf 0 b.len in
  b.len <- 4;
  b.count <- 0;
  msg

let reply_stored = -2
let reply_miss = -1

let batch_replies r ~off ~len =
  let count = Bytes.get_uint16_le r 0 in
  if count > Array.length off || count > Array.length len then
    invalid_arg "Kv_wire.batch_replies: more replies than room";
  let rec go i o =
    if i < count then
      match Bytes.get r o with
      | 's' ->
        len.(i) <- reply_stored;
        go (i + 1) (o + 1)
      | 'm' ->
        len.(i) <- reply_miss;
        go (i + 1) (o + 1)
      | 'v' ->
        let n = Bytes.get_uint16_le r (o + 1) in
        off.(i) <- o + 3;
        len.(i) <- n;
        go (i + 1) (o + 3 + n)
      | c -> invalid_arg (Printf.sprintf "Kv_wire.batch_replies: tag %c" c)
  in
  go 0 2;
  count

(* The answers to an 'I' and to a malformed message: constants, never
   mutated. *)
let ok = Bytes.unsafe_of_string "ok"
let err = Bytes.unsafe_of_string "err"

(* A batch reply starts with its u16 reply count: read as one, ["err"]
   would claim 29,285 replies in one byte, so it is unambiguous. *)
let refused r = Bytes.equal r err

(* The u16 at [o], or past any length once it would read beyond the
   message. *)
let u16 msg o = if o + 2 <= Bytes.length msg then Bytes.get_uint16_le msg o else 1 lsl 17

(* Where batch op [off] ends, or -1 if it runs past the message or
   carries more than the store holds. Nothing is allocated. *)
let op_end msg off =
  let k = u16 msg (off + 1) and v = u16 msg (off + 3) in
  match if off < Bytes.length msg then Bytes.get msg off else ' ' with
  | 'I' when k <= Kv_server.max_kv && v <= Kv_server.max_kv && off + 5 + k + v <= Bytes.length msg
    ->
    off + 5 + k + v
  | 'Q' when off + 3 + k <= Bytes.length msg -> off + 3 + k
  | _ -> -1

(* A batch is checked whole before any of its ops runs. *)
let rec ops_fit msg i count off =
  off >= 0 && (i = count || ops_fit msg (i + 1) count (op_end msg off))

(* The inserts of a checked batch's ops [i..count) from [off] whose key
   the table does not hold (a new key inserted twice counts twice). *)
let rec new_keys kv cpu msg i count off n =
  if i = count then n
  else
    let k = Bytes.get_uint16_le msg (off + 1) in
    let fresh =
      Bytes.get msg off = 'I' && Kv_server.query_sub kv cpu msg ~key_off:(off + 5) ~key_len:k = None
    in
    new_keys kv cpu msg (i + 1) count (op_end msg off) (if fresh then n + 1 else n)

(* Whether the table has a free slot for each of them; the keys are
   looked up only once fewer slots than ops are free. *)
let room_for kv cpu msg count =
  let free = Kv_server.free_slots kv in
  count <= free || new_keys kv cpu msg 0 count 4 0 <= free

(* The store works on the message's fields in place; a batch's reply is
   assembled in a reply buffer owned by this handler (one server
   process, one call at a time) and copied out once, so a crossing
   allocates only its reply. A message too short for its lengths, with
   an unknown opcode, an op the store cannot hold or a new key for a
   full table is answered [err]; a batch, only before any of its ops
   runs. *)
let handler kv kernel : Sky_kernels.Ipc.handler =
  let reply_buf = ref (Bytes.create 256) in
  let room n =
    if Bytes.length !reply_buf < n then
      reply_buf := Bytes.extend !reply_buf 0 (Int.max n (2 * Bytes.length !reply_buf))
  in
  fun ~core msg ->
    let cpu = Kernel.cpu kernel ~core in
    let n = Bytes.length msg in
    (* The key length of an 'I' or a 'Q', the op count of a 'B'. *)
    let k = u16 msg 2 in
    match if n >= 4 then Bytes.get msg 0 else ' ' with
    | 'I' when k <= Kv_server.max_kv && 4 + k <= n && n - 4 - k <= Kv_server.max_kv -> (
      match
        Kv_server.insert_sub kv cpu msg ~key_off:4 ~key_len:k ~value_off:(4 + k)
          ~value_len:(n - 4 - k)
      with
      | () -> ok
      | exception Kv_server.Table_full -> err)
    | 'Q' when 4 + k <= n -> (
      match Kv_server.query_sub kv cpu msg ~key_off:4 ~key_len:k with
      | Some v -> v
      | None -> Bytes.empty)
    | 'B' when ops_fit msg 0 k 4 && room_for kv cpu msg k ->
      (* One crossing, many operations: the store pays per-op cache
         footprint as usual, but the SkyBridge/IPC transit is amortized. *)
      room 2;
      Bytes.set_uint16_le !reply_buf 0 k;
      let rec ops i off out =
        if i = k then out
        else if Bytes.get msg off = 'I' then begin
          let klen = Bytes.get_uint16_le msg (off + 1) in
          let vlen = Bytes.get_uint16_le msg (off + 3) in
          Kv_server.insert_sub kv cpu msg ~key_off:(off + 5) ~key_len:klen
            ~value_off:(off + 5 + klen) ~value_len:vlen;
          room (out + 1);
          Bytes.set !reply_buf out 's';
          ops (i + 1) (off + 5 + klen + vlen) (out + 1)
        end
        else begin
          let klen = Bytes.get_uint16_le msg (off + 1) in
          room (out + 3 + Kv_server.max_kv);
          let vlen =
            Kv_server.query_into kv cpu msg ~key_off:(off + 3) ~key_len:klen
              ~dst:!reply_buf ~dst_off:(out + 3)
          in
          if vlen < 0 then begin
            Bytes.set !reply_buf out 'm';
            ops (i + 1) (off + 3 + klen) (out + 1)
          end
          else begin
            Bytes.set !reply_buf out 'v';
            Bytes.set_uint16_le !reply_buf (out + 1) vlen;
            ops (i + 1) (off + 3 + klen) (out + 3 + vlen)
          end
        end
      in
      Bytes.sub !reply_buf 0 (ops 0 4 2)
    | _ -> err
