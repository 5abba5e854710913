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

let hash key =
  let h = ref 5381 in
  for i = 0 to Bytes.length key - 1 do
    h := ((!h lsl 5) + !h + Char.code (Bytes.unsafe_get key i)) land 0x3fffffff
  done;
  !h mod slot_count

let slot_pa t i = t.base_pa + (i * slot_size)

let touch cpu pa len =
  Sky_sim.Memsys.touch_range cpu Sky_sim.Memsys.Data ~pa ~len

let slot_used t i = Sky_mem.Phys_mem.read_u16 t.mem (slot_pa t i) = 1

(* The slot's key compared where it lives, without copying it out. *)
let slot_key_is t i key =
  let pa = slot_pa t i in
  Sky_mem.Phys_mem.read_u16 t.mem (pa + 2) = Bytes.length key
  && Sky_mem.Phys_mem.equal_bytes t.mem (pa + 8) key

exception Table_full

(* Linear probing from the hash slot: the first slot matching [key]
   (or the first free slot when [for_insert]), or -1. A toplevel loop,
   so a probe allocates nothing. *)
let rec probe_from t cpu key ~for_insert start n =
  if n >= slot_count then if for_insert then raise Table_full else -1
  else begin
    let i = (start + n) mod slot_count in
    let pa = slot_pa t i in
    touch cpu pa 8;
    if not (slot_used t i) then if for_insert then i else -1
    else begin
      touch cpu (pa + 8) (Bytes.length key);
      if slot_key_is t i key then i
      else probe_from t cpu key ~for_insert start (n + 1)
    end
  end

let probe t cpu key ~for_insert = probe_from t cpu key ~for_insert (hash key) 0

let insert t cpu ~key ~value =
  if Bytes.length key > max_kv || Bytes.length value > max_kv then
    invalid_arg "Kv_server.insert: too large";
  (* record packing / checksum work *)
  Sky_sim.Cpu.charge cpu (2 * (Bytes.length key + Bytes.length value));
  match probe t cpu key ~for_insert:true with
  | -1 -> raise Table_full
  | i ->
    let pa = slot_pa t i in
    if not (slot_used t i) then t.entries <- t.entries + 1;
    Sky_mem.Phys_mem.write_u16 t.mem pa 1;
    Sky_mem.Phys_mem.write_u16 t.mem (pa + 2) (Bytes.length key);
    Sky_mem.Phys_mem.write_u16 t.mem (pa + 4) (Bytes.length value);
    Sky_mem.Phys_mem.write_bytes t.mem (pa + 8) key;
    Sky_mem.Phys_mem.write_bytes t.mem (pa + 8 + max_kv) value;
    touch cpu (pa + 8) (Bytes.length key);
    touch cpu (pa + 8 + max_kv) (Bytes.length value)

let query t cpu ~key =
  Sky_sim.Cpu.charge cpu (2 * Bytes.length key);
  match probe t cpu key ~for_insert:false with
  | -1 -> None
  | i ->
    let pa = slot_pa t i in
    let vlen = Sky_mem.Phys_mem.read_u16 t.mem (pa + 4) in
    touch cpu (pa + 8 + max_kv) vlen;
    Some (Sky_mem.Phys_mem.read_bytes t.mem (pa + 8 + max_kv) vlen)

let entries t = t.entries
