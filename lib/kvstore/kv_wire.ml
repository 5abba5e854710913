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

(* The answer to an 'I': a constant, never mutated. *)
let ok = Bytes.unsafe_of_string "ok"

(* The store works on the message's fields in place; a batch's reply is
   assembled in a reply buffer owned by this handler (one server
   process, one call at a time) and copied out once, so a crossing
   allocates only its reply. *)
let handler kv kernel : Sky_kernels.Ipc.handler =
  let reply_buf = ref (Bytes.create 256) in
  let room n =
    if Bytes.length !reply_buf < n then
      reply_buf := Bytes.extend !reply_buf 0 (Int.max n (2 * Bytes.length !reply_buf))
  in
  fun ~core msg ->
    let cpu = Kernel.cpu kernel ~core in
    match Bytes.get msg 0 with
    | 'I' ->
      let klen = Bytes.get_uint16_le msg 2 in
      Kv_server.insert_sub kv cpu msg ~key_off:4 ~key_len:klen ~value_off:(4 + klen)
        ~value_len:(Bytes.length msg - 4 - klen);
      ok
    | 'Q' -> (
      match Kv_server.query_sub kv cpu msg ~key_off:4 ~key_len:(Bytes.get_uint16_le msg 2) with
      | Some v -> v
      | None -> Bytes.empty)
    | 'B' ->
      (* One crossing, many operations: the store pays per-op cache
         footprint as usual, but the SkyBridge/IPC transit is amortized. *)
      let count = Bytes.get_uint16_le msg 2 in
      room 2;
      Bytes.set_uint16_le !reply_buf 0 count;
      let rec ops i off out =
        if i = count then out
        else
          match Bytes.get msg off with
          | 'I' ->
            let klen = Bytes.get_uint16_le msg (off + 1) in
            let vlen = Bytes.get_uint16_le msg (off + 3) in
            Kv_server.insert_sub kv cpu msg ~key_off:(off + 5) ~key_len:klen
              ~value_off:(off + 5 + klen) ~value_len:vlen;
            room (out + 1);
            Bytes.set !reply_buf out 's';
            ops (i + 1) (off + 5 + klen + vlen) (out + 1)
          | 'Q' ->
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
          | c -> invalid_arg (Printf.sprintf "Kv_wire.handler: batch op %c" c)
      in
      Bytes.sub !reply_buf 0 (ops 0 4 2)
    | c -> invalid_arg (Printf.sprintf "Kv_wire.handler: opcode %c" c)
