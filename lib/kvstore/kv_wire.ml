(* The KV store's wire protocol: one message per operation ('I', 'Q')
   or a whole batch in one crossing ('B'), and the server-side handler
   that serves them on the store in place. *)

open Sky_ukernel

type op = Op_put of string * bytes | Op_get of string
type reply = R_stored of bool | R_value of bytes option

let insert_msg ~key ~value =
  let k = String.length key in
  let b = Bytes.create (4 + k + Bytes.length value) in
  Bytes.set b 0 'I';
  Bytes.set_uint16_le b 2 k;
  Bytes.blit_string key 0 b 4 k;
  Bytes.blit value 0 b (4 + k) (Bytes.length value);
  b

let query_msg ~key =
  let k = String.length key in
  let b = Bytes.create (4 + k) in
  Bytes.set b 0 'Q';
  Bytes.set_uint16_le b 2 k;
  Bytes.blit_string key 0 b 4 k;
  b

(* 'B': [count:u16] then per op 'I'[klen:u16][vlen:u16]key value or
   'Q'[klen:u16]key — a whole request batch in one server crossing. The
   reply mirrors it: [count:u16] then 's' (stored), 'm' (miss) or
   'v'[len:u16]bytes per op, in order. *)
let batch_msg ops =
  let size =
    List.fold_left
      (fun a op ->
        a
        +
        match op with
        | Op_put (k, v) -> 5 + String.length k + Bytes.length v
        | Op_get k -> 3 + String.length k)
      4 ops
  in
  let b = Bytes.create size in
  Bytes.set b 0 'B';
  Bytes.set b 1 '\000';
  Bytes.set_uint16_le b 2 (List.length ops);
  let off = ref 4 in
  List.iter
    (fun op ->
      match op with
      | Op_put (k, v) ->
        Bytes.set b !off 'I';
        Bytes.set_uint16_le b (!off + 1) (String.length k);
        Bytes.set_uint16_le b (!off + 3) (Bytes.length v);
        Bytes.blit_string k 0 b (!off + 5) (String.length k);
        Bytes.blit v 0 b (!off + 5 + String.length k) (Bytes.length v);
        off := !off + 5 + String.length k + Bytes.length v
      | Op_get k ->
        Bytes.set b !off 'Q';
        Bytes.set_uint16_le b (!off + 1) (String.length k);
        Bytes.blit_string k 0 b (!off + 3) (String.length k);
        off := !off + 3 + String.length k)
    ops;
  b

let batch_replies resp =
  let count = Bytes.get_uint16_le resp 0 in
  let off = ref 2 in
  List.init count (fun _ ->
      match Bytes.get resp !off with
      | 's' ->
        incr off;
        R_stored true
      | 'm' ->
        incr off;
        R_value None
      | 'v' ->
        let len = Bytes.get_uint16_le resp (!off + 1) in
        let v = Bytes.sub resp (!off + 3) len in
        off := !off + 3 + len;
        R_value (Some v)
      | c -> invalid_arg (Printf.sprintf "Kv_wire.batch_replies: tag %c" c))

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
      Bytes.of_string "ok"
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
