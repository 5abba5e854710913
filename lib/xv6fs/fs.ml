(** The xv6-style log-structured^W log-protected file system (§6.5 ports
    "a log-based file system named xv6fs").

    Inodes with 12 direct + 1 indirect block pointers, a flat root
    directory, a block bitmap, and every mutating operation wrapped in a
    write-ahead-log transaction. A single big lock serializes all
    operations — deliberately: "since the xv6fs does not support
    multithreading, we use one big lock in the file system, that is the
    reason why the scalability is so bad" (§6.5). *)

let bsize = Sky_blockdev.Ramdisk.block_size
let ndirect = 12
let nindirect = bsize / 4

(* One double-indirect pointer extends xv6's 12+256-block limit to
   ~64 MiB — needed by the YCSB table (10,000 records, §6.5). *)
let max_file_blocks = ndirect + nindirect + (nindirect * nindirect)
let inode_size = 64
let inodes_per_block = bsize / inode_size
let dirent_size = 16
let max_name = 14
let root_inum = 1

type itype = T_free | T_dir | T_file

exception Fs_error of string

let itype_code = function T_free -> 0 | T_dir -> 1 | T_file -> 2

let itype_of_code = function
  | 0 -> T_free
  | 1 -> T_dir
  | 2 -> T_file
  | n -> raise (Fs_error (Printf.sprintf "bad inode type %d" n))

type dinode = {
  mutable typ : itype;
  mutable nlink : int;
  mutable size : int;
  addrs : int array;  (** [ndirect] direct + 1 indirect *)
}

let empty_dinode () =
  { typ = T_free; nlink = 0; size = 0; addrs = Array.make (ndirect + 2) 0 }

let encode_dinode ino block off =
  Bytes.set_uint16_le block off (itype_code ino.typ);
  Bytes.set_uint16_le block (off + 2) ino.nlink;
  Bytes.set_int32_le block (off + 4) (Int32.of_int ino.size);
  Array.iteri
    (fun i a -> Bytes.set_int32_le block (off + 8 + (i * 4)) (Int32.of_int a))
    ino.addrs

let decode_dinode block off =
  {
    typ = itype_of_code (Bytes.get_uint16_le block off);
    nlink = Bytes.get_uint16_le block (off + 2);
    size = Int32.to_int (Bytes.get_int32_le block (off + 4));
    addrs =
      Array.init (ndirect + 2) (fun i ->
          Int32.to_int (Bytes.get_int32_le block (off + 8 + (i * 4))));
  }

type t = {
  kernel : Sky_ukernel.Kernel.t;
  disk : Sky_blockdev.Disk.t;
  sb : Superblock.t;
  bcache : Bcache.t;
  log : Log.t;
  lock : Sky_ukernel.Lock.t;
}

let cpu t ~core = Sky_ukernel.Kernel.cpu t.kernel ~core

(* ------------------------------------------------------------------ *)
(* mkfs                                                                *)
(* ------------------------------------------------------------------ *)

let mkfs kernel disk ~core ?(size = 2000) ?(ninodes = 200) () =
  ignore kernel;
  let sb = Superblock.layout ~size ~ninodes ~nlog:30 in
  disk.Sky_blockdev.Disk.write ~core 1 (Superblock.encode sb);
  (* Clear the log header. *)
  disk.Sky_blockdev.Disk.write ~core sb.Superblock.logstart (Bytes.make bsize '\000');
  (* All inodes free. *)
  let ninodeblocks = (ninodes + inodes_per_block - 1) / inodes_per_block in
  for b = 0 to ninodeblocks - 1 do
    disk.Sky_blockdev.Disk.write ~core (sb.Superblock.inodestart + b)
      (Bytes.make bsize '\000')
  done;
  (* Bitmap: mark the metadata blocks (everything below data_start) used. *)
  let data_start = Superblock.data_start sb in
  let bitmap = Bytes.make bsize '\000' in
  for blk = 0 to data_start - 1 do
    let byte = blk / 8 and bit = blk mod 8 in
    Bytes.set bitmap byte
      (Char.chr (Char.code (Bytes.get bitmap byte) lor (1 lsl bit)))
  done;
  disk.Sky_blockdev.Disk.write ~core sb.Superblock.bmapstart bitmap;
  (* Root directory inode. *)
  let iblock = Bytes.make bsize '\000' in
  let root = empty_dinode () in
  root.typ <- T_dir;
  root.nlink <- 1;
  encode_dinode root iblock ((root_inum mod inodes_per_block) * inode_size);
  disk.Sky_blockdev.Disk.write ~core
    (sb.Superblock.inodestart + (root_inum / inodes_per_block))
    iblock

let mount kernel disk ~core =
  let machine = kernel.Sky_ukernel.Kernel.machine in
  let sb = Superblock.decode (disk.Sky_blockdev.Disk.read ~core 1) in
  ignore (Log.recover disk sb ~core);
  let bcache = Bcache.create machine in
  {
    kernel;
    disk;
    sb;
    bcache;
    log = Log.create disk sb bcache;
    lock = Sky_ukernel.Lock.create "xv6fs-big-lock";
  }

(* ------------------------------------------------------------------ *)
(* Block and inode primitives (inside a transaction)                   *)
(* ------------------------------------------------------------------ *)

let bread t ~core blockno = Log.read t.log (cpu t ~core) ~core blockno
let bwrite t blockno data = Log.write t.log blockno data

(* Allocate a zeroed data block. *)
let balloc t ~core =
  let data_start = Superblock.data_start t.sb in
  let bitmap_block blk = t.sb.Superblock.bmapstart + (blk / (bsize * 8)) in
  let rec scan blk =
    if blk >= t.sb.Superblock.size then raise (Fs_error "disk full")
    else begin
      let bm = bread t ~core (bitmap_block blk) in
      let idx = blk mod (bsize * 8) in
      let byte = idx / 8 and bit = idx mod 8 in
      if Char.code (Bytes.get bm byte) land (1 lsl bit) = 0 then begin
        Bytes.set bm byte (Char.chr (Char.code (Bytes.get bm byte) lor (1 lsl bit)));
        bwrite t (bitmap_block blk) bm;
        bwrite t blk (Bytes.make bsize '\000');
        blk
      end
      else scan (blk + 1)
    end
  in
  scan data_start

let bfree t ~core blk =
  let bmblock = t.sb.Superblock.bmapstart + (blk / (bsize * 8)) in
  let bm = bread t ~core bmblock in
  let idx = blk mod (bsize * 8) in
  let byte = idx / 8 and bit = idx mod 8 in
  Bytes.set bm byte (Char.chr (Char.code (Bytes.get bm byte) land lnot (1 lsl bit)));
  bwrite t bmblock bm

let inode_block t inum = t.sb.Superblock.inodestart + (inum / inodes_per_block)
let inode_off inum = inum mod inodes_per_block * inode_size

let read_inode t ~core inum =
  if inum < 1 || inum >= t.sb.Superblock.ninodes then
    raise (Fs_error (Printf.sprintf "bad inum %d" inum));
  decode_dinode (bread t ~core (inode_block t inum)) (inode_off inum)

let write_inode t ~core inum ino =
  let block = bread t ~core (inode_block t inum) in
  encode_dinode ino block (inode_off inum);
  bwrite t (inode_block t inum) block

let ialloc t ~core typ =
  let rec scan inum =
    if inum >= t.sb.Superblock.ninodes then raise (Fs_error "out of inodes")
    else
      let ino = read_inode t ~core inum in
      if ino.typ = T_free then begin
        ino.typ <- typ;
        ino.nlink <- 1;
        ino.size <- 0;
        Array.fill ino.addrs 0 (ndirect + 2) 0;
        write_inode t ~core inum ino;
        inum
      end
      else scan (inum + 1)
  in
  scan 1

(* Entry [slot] of the indirect block at [blk], allocating a fresh block
   into the slot when empty and [alloc]. *)
let indirect_slot t ~core blk slot ~alloc =
  let ind = bread t ~core blk in
  let cur = Int32.to_int (Bytes.get_int32_le ind (slot * 4)) in
  if cur = 0 && alloc then begin
    let fresh = balloc t ~core in
    (* Re-read: balloc dirtied the transaction; pick the latest copy. *)
    let ind = bread t ~core blk in
    Bytes.set_int32_le ind (slot * 4) (Int32.of_int fresh);
    bwrite t blk ind;
    fresh
  end
  else cur

(* File block [bn] of [ino], allocating on demand ([alloc]=true):
   12 direct, one single-indirect, one double-indirect. *)
let bmap t ~core inum ino bn ~alloc =
  if bn >= max_file_blocks then raise (Fs_error "file too large");
  let ensure_addr i =
    if ino.addrs.(i) = 0 && alloc then begin
      ino.addrs.(i) <- balloc t ~core;
      write_inode t ~core inum ino
    end;
    ino.addrs.(i)
  in
  if bn < ndirect then begin
    if ino.addrs.(bn) = 0 && alloc then begin
      ino.addrs.(bn) <- balloc t ~core;
      write_inode t ~core inum ino
    end;
    ino.addrs.(bn)
  end
  else if bn < ndirect + nindirect then begin
    let ind = ensure_addr ndirect in
    if ind = 0 then 0 else indirect_slot t ~core ind (bn - ndirect) ~alloc
  end
  else begin
    let dbn = bn - ndirect - nindirect in
    let dind = ensure_addr (ndirect + 1) in
    if dind = 0 then 0
    else begin
      let mid = indirect_slot t ~core dind (dbn / nindirect) ~alloc in
      if mid = 0 then 0 else indirect_slot t ~core mid (dbn mod nindirect) ~alloc
    end
  end

(* [inum]'s inode, which must be of type [typ]: a wire request naming a
   free inode or the root directory as a file is refused. *)
let typed_inode t ~core ~typ inum =
  let ino = read_inode t ~core inum in
  if ino.typ <> typ then raise (Fs_error (Printf.sprintf "inode %d has the wrong type" inum));
  ino

let readi t ~core ~typ inum ~off ~len =
  let ino = typed_inode t ~core ~typ inum in
  let len = max 0 (min len (ino.size - off)) in
  let out = Bytes.create len in
  let rec go pos =
    if pos < len then begin
      let o = off + pos in
      let bn = o / bsize and boff = o mod bsize in
      let n = min (bsize - boff) (len - pos) in
      let blk = bmap t ~core inum ino bn ~alloc:false in
      if blk = 0 then Bytes.fill out pos n '\000'
      else Bytes.blit (bread t ~core blk) boff out pos n;
      go (pos + n)
    end
  in
  go 0;
  out

let writei t ~core ~typ inum ~off data =
  let ino = typed_inode t ~core ~typ inum in
  let len = Bytes.length data in
  if off + len > max_file_blocks * bsize then raise (Fs_error "file too large");
  let rec go pos =
    if pos < len then begin
      let o = off + pos in
      let bn = o / bsize and boff = o mod bsize in
      let n = min (bsize - boff) (len - pos) in
      let blk = bmap t ~core inum ino bn ~alloc:true in
      let cur = bread t ~core blk in
      Bytes.blit data pos cur boff n;
      bwrite t blk cur;
      go (pos + n)
    end
  in
  go 0;
  if off + len > ino.size then begin
    ino.size <- off + len;
    write_inode t ~core inum ino
  end

(* ------------------------------------------------------------------ *)
(* Directory ops (flat root directory)                                 *)
(* ------------------------------------------------------------------ *)

let check_name name =
  if String.length name = 0 || String.length name > max_name then
    raise (Fs_error (Printf.sprintf "bad file name %S" name))

let dirent_name block off =
  let raw = Bytes.sub_string block (off + 2) max_name in
  match String.index_opt raw '\000' with
  | Some i -> String.sub raw 0 i
  | None -> raw

(* Iterate root dirents; [f off inum name] returns [Some x] to stop. *)
let dir_fold t ~core f =
  let root = read_inode t ~core root_inum in
  let rec go off =
    if off >= root.size then None
    else begin
      let data = readi t ~core ~typ:T_dir root_inum ~off ~len:dirent_size in
      let inum = Bytes.get_uint16_le data 0 in
      match f off inum (dirent_name data 0) with
      | Some x -> Some x
      | None -> go (off + dirent_size)
    end
  in
  go 0

let dir_lookup t ~core name =
  dir_fold t ~core (fun _off inum n ->
      if inum <> 0 && n = name then Some inum else None)

let dir_link t ~core name inum =
  check_name name;
  let slot =
    match
      dir_fold t ~core (fun off i _ -> if i = 0 then Some off else None)
    with
    | Some off -> off
    | None -> (read_inode t ~core root_inum).size
  in
  let ent = Bytes.make dirent_size '\000' in
  Bytes.set_uint16_le ent 0 inum;
  Bytes.blit_string name 0 ent 2 (String.length name);
  writei t ~core ~typ:T_dir root_inum ~off:slot ent

let dir_unlink t ~core name =
  match
    dir_fold t ~core (fun off i n -> if i <> 0 && n = name then Some off else None)
  with
  | None -> false
  | Some off ->
    writei t ~core ~typ:T_dir root_inum ~off (Bytes.make dirent_size '\000');
    true

(* ------------------------------------------------------------------ *)
(* Public API: every operation is one logged transaction under the big
   lock                                                                *)
(* ------------------------------------------------------------------ *)

let with_op t ~core f =
  Sky_ukernel.Lock.with_lock t.lock (cpu t ~core) (fun () ->
      Log.begin_op t.log;
      match f () with
      | v ->
        Log.end_op t.log (cpu t ~core) ~core;
        v
      | exception e ->
        (* A crash mid-transaction leaves the log uncommitted; recovery
           discards it. Reset in-memory transaction state. *)
        Log.abort t.log;
        raise e)

let create t ~core name =
  with_op t ~core (fun () ->
      check_name name;
      match dir_lookup t ~core name with
      | Some inum -> inum
      | None ->
        let inum = ialloc t ~core T_file in
        dir_link t ~core name inum;
        inum)

let lookup t ~core name =
  with_op t ~core (fun () -> dir_lookup t ~core name)

let file_size t ~core ~inum =
  with_op t ~core (fun () -> (read_inode t ~core inum).size)

(* A negative offset or length reaches no byte of a file. *)
let check_range ~off ~len =
  if off < 0 || len < 0 then
    raise (Fs_error (Printf.sprintf "bad range: offset %d, length %d" off len))

let read t ~core ~inum ~off ~len =
  check_range ~off ~len;
  with_op t ~core (fun () -> readi t ~core ~typ:T_file inum ~off ~len)

let write t ~core ~inum ~off data =
  check_range ~off ~len:0;
  with_op t ~core (fun () -> writei t ~core ~typ:T_file inum ~off data)

let free_indirect t ~core blk ~depth =
  let rec go blk depth =
    if depth > 0 then begin
      let ind = bread t ~core blk in
      for slot = 0 to nindirect - 1 do
        let child = Int32.to_int (Bytes.get_int32_le ind (slot * 4)) in
        if child <> 0 then go child (depth - 1)
      done
    end;
    bfree t ~core blk
  in
  go blk depth

let truncate_blocks t ~core inum =
  let ino = read_inode t ~core inum in
  for i = 0 to ndirect - 1 do
    if ino.addrs.(i) <> 0 then begin
      bfree t ~core ino.addrs.(i);
      ino.addrs.(i) <- 0
    end
  done;
  if ino.addrs.(ndirect) <> 0 then begin
    free_indirect t ~core ino.addrs.(ndirect) ~depth:1;
    ino.addrs.(ndirect) <- 0
  end;
  if ino.addrs.(ndirect + 1) <> 0 then begin
    free_indirect t ~core ino.addrs.(ndirect + 1) ~depth:2;
    ino.addrs.(ndirect + 1) <- 0
  end;
  ino.size <- 0;
  write_inode t ~core inum ino

let unlink t ~core name =
  with_op t ~core (fun () ->
      match dir_lookup t ~core name with
      | None -> false
      | Some inum ->
        let ok = dir_unlink t ~core name in
        if ok then begin
          truncate_blocks t ~core inum;
          let ino = read_inode t ~core inum in
          ino.typ <- T_free;
          ino.nlink <- 0;
          write_inode t ~core inum ino
        end;
        ok)

let list_dir t ~core =
  with_op t ~core (fun () ->
      let acc = ref [] in
      ignore
        (dir_fold t ~core (fun _ inum name ->
             if inum <> 0 then acc := (inum, name) :: !acc;
             None));
      List.rev !acc)

let lock t = t.lock
let superblock t = t.sb

let inspect_inode t ~core inum =
  Sky_ukernel.Lock.with_lock t.lock (cpu t ~core) (fun () ->
      read_inode t ~core inum)

let inspect_block t ~core blockno =
  Sky_ukernel.Lock.with_lock t.lock (cpu t ~core) (fun () ->
      bread t ~core blockno)
let log_commits t = Log.commits t.log
