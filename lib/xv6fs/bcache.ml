(** Block buffer cache.

    A fixed number of block-sized slots backed by simulated physical
    memory, so cache hits and misses have real micro-architectural
    footprints. Write-through happens via the log at commit time; the
    cache itself never holds data the disk does not (after commit). *)

let nbuf = 32

type slot = { pa : int; mutable blockno : int; mutable stamp : int }

type t = {
  mem : Sky_mem.Phys_mem.t;
  slots : slot array;
  index : (int, slot) Hashtbl.t;
  mutable clock : int;
}

let bsize = Sky_blockdev.Ramdisk.block_size

let create machine =
  let mem = machine.Sky_sim.Machine.mem in
  let pa =
    Sky_mem.Frame_alloc.alloc_frames machine.Sky_sim.Machine.alloc
      ~count:((nbuf * bsize) / 4096)
  in
  {
    mem;
    slots =
      Array.init nbuf (fun i -> { pa = pa + (i * bsize); blockno = -1; stamp = 0 });
    index = Hashtbl.create nbuf;
    clock = 0;
  }

let touch cpu slot =
  Sky_sim.Memsys.touch_range cpu Sky_sim.Memsys.Data ~pa:slot.pa ~len:bsize

(* Look up [blockno]; on miss, fill from [load ()] into an LRU slot. *)
let get t cpu blockno ~load =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.index blockno with
  | Some slot ->
    slot.stamp <- t.clock;
    touch cpu slot;
    Sky_mem.Phys_mem.read_bytes t.mem slot.pa bsize
  | None ->
    let victim = ref t.slots.(0) in
    Array.iter (fun s -> if s.stamp < !victim.stamp then victim := s) t.slots;
    let slot = !victim in
    if slot.blockno >= 0 then Hashtbl.remove t.index slot.blockno;
    let data = load () in
    if Bytes.length data <> bsize then invalid_arg "Bcache: bad block";
    Sky_mem.Phys_mem.write_bytes t.mem slot.pa data;
    slot.blockno <- blockno;
    slot.stamp <- t.clock;
    Hashtbl.replace t.index blockno slot;
    touch cpu slot;
    data

(* Update the cached copy (called when a transaction commits, and for
   log-local writes). *)
let put t cpu blockno data =
  t.clock <- t.clock + 1;
  (match Hashtbl.find_opt t.index blockno with
  | Some slot ->
    slot.stamp <- t.clock;
    Sky_mem.Phys_mem.write_bytes t.mem slot.pa data;
    touch cpu slot
  | None ->
    ignore (get t cpu blockno ~load:(fun () -> data)));
  ()
