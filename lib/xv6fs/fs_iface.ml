(** Transport-independent file-system interface + wire protocol.

    The SQLite-like database talks to this record; it is backed either by
    an in-process {!Fs.t} (Baseline), or by a remote FS server reached
    over baseline IPC or SkyBridge — the three configurations of
    Table 4 / Figures 9–11. *)

type t = {
  create : core:int -> string -> int;
  lookup : core:int -> string -> int option;
  size : core:int -> int -> int;
  read : core:int -> inum:int -> off:int -> len:int -> bytes;
  write : core:int -> inum:int -> off:int -> bytes -> unit;
  unlink : core:int -> string -> bool;
}

let of_fs fs =
  {
    create = (fun ~core name -> Fs.create fs ~core name);
    lookup = (fun ~core name -> Fs.lookup fs ~core name);
    size = (fun ~core inum -> Fs.file_size fs ~core ~inum);
    read = (fun ~core ~inum ~off ~len -> Fs.read fs ~core ~inum ~off ~len);
    write = (fun ~core ~inum ~off data -> Fs.write fs ~core ~inum ~off data);
    unlink = (fun ~core name -> Fs.unlink fs ~core name);
  }

(* ---- wire protocol ---- *)

exception Bad_message of string
exception Remote_error of string

let op_create = '\001'
let op_lookup = '\002'
let op_size = '\003'
let op_read = '\004'
let op_write = '\005'
let op_unlink = '\006'

let enc_name op name =
  let b = Bytes.create (1 + String.length name) in
  Bytes.set b 0 op;
  Bytes.blit_string name 0 b 1 (String.length name);
  b

let enc_iol op ~inum ~off ~len =
  let b = Bytes.create 13 in
  Bytes.set b 0 op;
  Bytes.set_int32_le b 1 (Int32.of_int inum);
  Bytes.set_int32_le b 5 (Int32.of_int off);
  Bytes.set_int32_le b 9 (Int32.of_int len);
  b

let ok_payload payload =
  let b = Bytes.create (1 + Bytes.length payload) in
  Bytes.set b 0 '\000';
  Bytes.blit payload 0 b 1 (Bytes.length payload);
  b

let err msg =
  let b = Bytes.create (1 + String.length msg) in
  Bytes.set b 0 '\001';
  Bytes.blit_string msg 0 b 1 (String.length msg);
  b

let unwrap reply =
  if Bytes.length reply = 0 then raise (Bad_message "empty reply");
  match Bytes.get reply 0 with
  | '\000' -> Bytes.sub reply 1 (Bytes.length reply - 1)
  | _ -> raise (Remote_error (Bytes.sub_string reply 1 (Bytes.length reply - 1)))

let int_reply b =
  let p = unwrap b in
  Int32.to_int (Bytes.get_int32_le p 0)

let enc_int v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  b

(* A request shorter than its opcode's [n] bytes of fixed fields. *)
let need msg n =
  if Bytes.length msg < n then
    raise (Bad_message (Printf.sprintf "%d-byte request" (Bytes.length msg)))

(* Server side: decode a request and run it against the local FS. *)
let server_handler fs : Sky_kernels.Ipc.handler =
 fun ~core msg ->
  try
    if Bytes.length msg = 0 then raise (Bad_message "empty request");
    let name () = Bytes.sub_string msg 1 (Bytes.length msg - 1) in
    match Bytes.get msg 0 with
    | c when c = op_create -> ok_payload (enc_int (Fs.create fs ~core (name ())))
    | c when c = op_lookup ->
      ok_payload
        (enc_int (match Fs.lookup fs ~core (name ()) with Some i -> i | None -> -1))
    | c when c = op_size ->
      need msg 5;
      let inum = Int32.to_int (Bytes.get_int32_le msg 1) in
      ok_payload (enc_int (Fs.file_size fs ~core ~inum))
    | c when c = op_read ->
      need msg 13;
      let inum = Int32.to_int (Bytes.get_int32_le msg 1) in
      let off = Int32.to_int (Bytes.get_int32_le msg 5) in
      let len = Int32.to_int (Bytes.get_int32_le msg 9) in
      ok_payload (Fs.read fs ~core ~inum ~off ~len)
    | c when c = op_write ->
      need msg 9;
      let inum = Int32.to_int (Bytes.get_int32_le msg 1) in
      let off = Int32.to_int (Bytes.get_int32_le msg 5) in
      Fs.write fs ~core ~inum ~off (Bytes.sub msg 9 (Bytes.length msg - 9));
      ok_payload (enc_int 0)
    | c when c = op_unlink ->
      ok_payload (enc_int (if Fs.unlink fs ~core (name ()) then 1 else 0))
    | c -> raise (Bad_message (Printf.sprintf "opcode %d" (Char.code c)))
  with
  | Fs.Fs_error m -> err m
  | Bad_message m -> err ("bad message: " ^ m)

(* Client side over any request/reply transport. *)
let over_call call =
  {
    create = (fun ~core name -> int_reply (call ~core (enc_name op_create name)));
    lookup =
      (fun ~core name ->
        match int_reply (call ~core (enc_name op_lookup name)) with
        | -1 -> None
        | i -> Some i);
    size = (fun ~core inum -> int_reply (call ~core (enc_iol op_size ~inum ~off:0 ~len:0)));
    read =
      (fun ~core ~inum ~off ~len ->
        unwrap (call ~core (enc_iol op_read ~inum ~off ~len)));
    write =
      (fun ~core ~inum ~off data ->
        let hdr = enc_iol op_write ~inum ~off ~len:(Bytes.length data) in
        let b = Bytes.create (9 + Bytes.length data) in
        Bytes.blit hdr 0 b 0 9;
        Bytes.blit data 0 b 9 (Bytes.length data);
        ignore (int_reply (call ~core b)));
    unlink = (fun ~core name -> int_reply (call ~core (enc_name op_unlink name)) = 1);
  }
