(** Database pager: fixed-size pages of a single FS file, with an
    internal page cache.

    The cache is the reason the paper's Query workload barely exercises
    IPC ("the SQLite3 has an internal cache to handle the recent read
    requests, which thus avoids a large number of IPC operations",
    §6.5): hits are served from the client's own memory. Cached pages
    live in simulated guest frames, so hits still cost real (warm) cache
    accesses. *)

let page_size = Sky_blockdev.Ramdisk.block_size
let cache_slots = 32

type slot = { pa : int; mutable page_no : int; mutable stamp : int }

type t = {
  fs : Sky_xv6fs.Fs_iface.t;
  inum : int;
  mem : Sky_mem.Phys_mem.t;
  kernel : Sky_ukernel.Kernel.t;
  slots : slot array;
  index : (int, slot) Hashtbl.t;
  mutable clock : int;
  mutable npages : int;
  mutable hits : int;
}

let create kernel fs ~core ~inum =
  let machine = kernel.Sky_ukernel.Kernel.machine in
  let pa =
    Sky_mem.Frame_alloc.alloc_frames machine.Sky_sim.Machine.alloc
      ~count:(cache_slots * page_size / 4096)
  in
  let size = fs.Sky_xv6fs.Fs_iface.size ~core inum in
  {
    fs;
    inum;
    mem = machine.Sky_sim.Machine.mem;
    kernel;
    slots =
      Array.init cache_slots (fun i ->
          { pa = pa + (i * page_size); page_no = -1; stamp = 0 });
    index = Hashtbl.create cache_slots;
    clock = 0;
    npages = (size + page_size - 1) / page_size;
    hits = 0;
  }

let touch t ~core slot =
  Sky_sim.Memsys.touch_range
    (Sky_ukernel.Kernel.cpu t.kernel ~core)
    Sky_sim.Memsys.Data ~pa:slot.pa ~len:page_size

let victim t =
  let v = ref t.slots.(0) in
  Array.iter (fun s -> if s.stamp < !v.stamp then v := s) t.slots;
  if !v.page_no >= 0 then Hashtbl.remove t.index !v.page_no;
  !v

let fill t ~core slot page_no data =
  Sky_mem.Phys_mem.write_bytes t.mem slot.pa data;
  slot.page_no <- page_no;
  slot.stamp <- t.clock;
  Hashtbl.replace t.index page_no slot;
  touch t ~core slot

let read t ~core page_no =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.index page_no with
  | Some slot ->
    t.hits <- t.hits + 1;
    slot.stamp <- t.clock;
    touch t ~core slot;
    Sky_mem.Phys_mem.read_bytes t.mem slot.pa page_size
  | None ->
    let data =
      t.fs.Sky_xv6fs.Fs_iface.read ~core ~inum:t.inum ~off:(page_no * page_size)
        ~len:page_size
    in
    let data =
      if Bytes.length data < page_size then begin
        let full = Bytes.make page_size '\000' in
        Bytes.blit data 0 full 0 (Bytes.length data);
        full
      end
      else data
    in
    fill t ~core (victim t) page_no data;
    data

(* Write-through: the FS sees every page write (it is the FS traffic the
   Table 4 experiment measures). *)
let write t ~core page_no data =
  if Bytes.length data <> page_size then invalid_arg "Pager.write: bad size";
  t.clock <- t.clock + 1;
  t.fs.Sky_xv6fs.Fs_iface.write ~core ~inum:t.inum ~off:(page_no * page_size) data;
  (match Hashtbl.find_opt t.index page_no with
  | Some slot ->
    slot.stamp <- t.clock;
    Sky_mem.Phys_mem.write_bytes t.mem slot.pa data;
    touch t ~core slot
  | None -> fill t ~core (victim t) page_no data);
  if page_no >= t.npages then t.npages <- page_no + 1

let alloc_page t ~core =
  let page_no = t.npages in
  write t ~core page_no (Bytes.make page_size '\000');
  page_no

let hits t = t.hits
