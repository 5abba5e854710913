(** The key-value store server: an open-addressing hash table whose
    entries live in simulated guest memory, so inserts and lookups have
    real cache/TLB footprints proportional to key/value size. *)

let slot_count = 4096
let max_kv = 1024

(* slot: used u16 | klen u16 | vlen u16 | pad u16 | key | value *)
let slot_size = 8 + max_kv + max_kv

type t = {
  mem : Sky_mem.Phys_mem.t;
  base_pa : int;
  mutable entries : int;
}

let create machine =
  let frames = (slot_count * slot_size + 4095) / 4096 in
  let base_pa =
    Sky_mem.Frame_alloc.alloc_frames machine.Sky_sim.Machine.alloc ~count:frames
  in
  { mem = machine.Sky_sim.Machine.mem; base_pa; entries = 0 }

(* Keys and values are slices [buf, off, len) of a caller's bytes — a
   wire message's fields are stored and compared where they lie, never
   copied out first. *)
let hash buf off len =
  let h = ref 5381 in
  for i = off to off + len - 1 do
    h := ((!h lsl 5) + !h + Char.code (Bytes.unsafe_get buf i)) land 0x3fffffff
  done;
  !h mod slot_count

let slot_pa t i = t.base_pa + (i * slot_size)

let touch cpu pa len =
  Sky_sim.Memsys.touch_range cpu Sky_sim.Memsys.Data ~pa ~len

let slot_used t i = Sky_mem.Phys_mem.read_u16 t.mem (slot_pa t i) = 1

(* The slot's key compared where it lives, without copying it out. *)
let slot_key_is t i buf off len =
  let pa = slot_pa t i in
  Sky_mem.Phys_mem.read_u16 t.mem (pa + 2) = len
  && Sky_mem.Phys_mem.equal_sub t.mem (pa + 8) buf ~off ~len

exception Table_full

(* Linear probing from the hash slot: the first slot matching the key
   (or the first free slot when [for_insert]), or -1. A toplevel loop,
   so a probe allocates nothing. *)
let rec probe_from t cpu buf off len ~for_insert start n =
  if n >= slot_count then if for_insert then raise Table_full else -1
  else begin
    let i = (start + n) mod slot_count in
    let pa = slot_pa t i in
    touch cpu pa 8;
    if not (slot_used t i) then if for_insert then i else -1
    else begin
      touch cpu (pa + 8) len;
      if slot_key_is t i buf off len then i
      else probe_from t cpu buf off len ~for_insert start (n + 1)
    end
  end

let probe t cpu buf off len ~for_insert =
  probe_from t cpu buf off len ~for_insert (hash buf off len) 0

(* A slice must lie inside its buffer: a malformed wire length is an
   [Invalid_argument], as the copy it replaces would raise. *)
let check_slice buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Kv_server: slice out of bounds"

let store t cpu kbuf ~key_off ~key_len vbuf ~value_off ~value_len =
  check_slice kbuf key_off key_len;
  check_slice vbuf value_off value_len;
  if key_len > max_kv || value_len > max_kv then
    invalid_arg "Kv_server.insert: too large";
  (* record packing / checksum work *)
  Sky_sim.Cpu.charge cpu (2 * (key_len + value_len));
  match probe t cpu kbuf key_off key_len ~for_insert:true with
  | -1 -> raise Table_full
  | i ->
    let pa = slot_pa t i in
    if not (slot_used t i) then t.entries <- t.entries + 1;
    Sky_mem.Phys_mem.write_u16 t.mem pa 1;
    Sky_mem.Phys_mem.write_u16 t.mem (pa + 2) key_len;
    Sky_mem.Phys_mem.write_u16 t.mem (pa + 4) value_len;
    Sky_mem.Phys_mem.blit_from t.mem ~src:kbuf ~src_off:key_off ~dst_pa:(pa + 8)
      ~len:key_len;
    Sky_mem.Phys_mem.blit_from t.mem ~src:vbuf ~src_off:value_off
      ~dst_pa:(pa + 8 + max_kv) ~len:value_len;
    touch cpu (pa + 8) key_len;
    touch cpu (pa + 8 + max_kv) value_len

let insert t cpu ~key ~value =
  store t cpu key ~key_off:0 ~key_len:(Bytes.length key) value ~value_off:0
    ~value_len:(Bytes.length value)

let insert_sub t cpu buf ~key_off ~key_len ~value_off ~value_len =
  store t cpu buf ~key_off ~key_len buf ~value_off ~value_len

(* The value's slot, charged as a lookup (key hashing, probe, value
   read), or -1 on a miss. *)
let find t cpu buf off len =
  check_slice buf off len;
  Sky_sim.Cpu.charge cpu (2 * len);
  match probe t cpu buf off len ~for_insert:false with
  | -1 -> -1
  | i ->
    let pa = slot_pa t i in
    touch cpu (pa + 8 + max_kv) (Sky_mem.Phys_mem.read_u16 t.mem (pa + 4));
    i

let value_of t i =
  let pa = slot_pa t i in
  Sky_mem.Phys_mem.read_bytes t.mem (pa + 8 + max_kv)
    (Sky_mem.Phys_mem.read_u16 t.mem (pa + 4))

let query t cpu ~key =
  match find t cpu key 0 (Bytes.length key) with -1 -> None | i -> Some (value_of t i)

let query_sub t cpu buf ~key_off ~key_len =
  match find t cpu buf key_off key_len with -1 -> None | i -> Some (value_of t i)

let query_into t cpu buf ~key_off ~key_len ~dst ~dst_off =
  match find t cpu buf key_off key_len with
  | -1 -> -1
  | i ->
    let pa = slot_pa t i in
    let vlen = Sky_mem.Phys_mem.read_u16 t.mem (pa + 4) in
    Sky_mem.Phys_mem.blit_to t.mem ~src_pa:(pa + 8 + max_kv) ~dst ~dst_off ~len:vlen;
    vlen

let free_slots t = slot_count - t.entries
let entries t = t.entries
