type problem =
  | Leaked_block of int
  | Unmarked_block of int * int
  | Double_use of int * int * int
  | Dangling_dirent of string * int
  | Bad_size of int

let problem_to_string = function
  | Leaked_block b -> Printf.sprintf "leaked block %d (marked used, unreachable)" b
  | Unmarked_block (b, i) ->
    Printf.sprintf "block %d of inode %d marked free in the bitmap" b i
  | Double_use (b, a, c) -> Printf.sprintf "block %d used by inodes %d and %d" b a c
  | Dangling_dirent (n, i) -> Printf.sprintf "dirent %S points at dead inode %d" n i
  | Bad_size i -> Printf.sprintf "inode %d: size exceeds mapped blocks" i

let bsize = Fs.bsize

let u32 b i = Int32.to_int (Bytes.get_int32_le b (i * 4))

(* Every data/indirect block reachable from [ino], plus whether the size
   is consistent with the mapping. *)
let blocks_of_inode fs ~core (ino : Fs.dinode) =
  let acc = ref [] in
  let add b = if b <> 0 then acc := b :: !acc in
  let ind_entries blk =
    if blk = 0 then []
    else begin
      add blk;
      let data = Fs.inspect_block fs ~core blk in
      List.init Fs.nindirect (fun i -> u32 data i)
    end
  in
  for i = 0 to Fs.ndirect - 1 do
    add ino.Fs.addrs.(i)
  done;
  List.iter add (ind_entries ino.Fs.addrs.(Fs.ndirect));
  List.iter
    (fun mid -> if mid <> 0 then List.iter add (ind_entries mid))
    (ind_entries ino.Fs.addrs.(Fs.ndirect + 1));
  !acc

let bitmap_bit fs ~core blk =
  let sb = Fs.superblock fs in
  let bm = Fs.inspect_block fs ~core (sb.Superblock.bmapstart + (blk / (bsize * 8))) in
  let idx = blk mod (bsize * 8) in
  Char.code (Bytes.get bm (idx / 8)) land (1 lsl (idx mod 8)) <> 0

let check fs ~core =
  let sb = Fs.superblock fs in
  let problems = ref [] in
  let report p = problems := p :: !problems in
  (* 1. Gather every live inode's reachable blocks, detecting double use
     and size overruns. *)
  let owner : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let live_inodes = ref [] in
  for inum = 1 to sb.Superblock.ninodes - 1 do
    let ino = Fs.inspect_inode fs ~core inum in
    if ino.Fs.typ <> Fs.T_free then begin
      live_inodes := (inum, ino) :: !live_inodes;
      let blocks = blocks_of_inode fs ~core ino in
      List.iter
        (fun b ->
          (match Hashtbl.find_opt owner b with
          | Some prev -> report (Double_use (b, prev, inum))
          | None -> Hashtbl.replace owner b inum);
          if not (bitmap_bit fs ~core b) then report (Unmarked_block (b, inum)))
        blocks;
      (* The size must fit in the *data* blocks mapped (indirect table
         blocks don't count towards the size). *)
      let data_blocks =
        List.length blocks
        - (if ino.Fs.addrs.(Fs.ndirect) <> 0 then 1 else 0)
        -
        if ino.Fs.addrs.(Fs.ndirect + 1) = 0 then 0
        else
          1
          + List.length
              (List.filter
                 (fun i -> i <> 0)
                 (List.init Fs.nindirect (fun i ->
                      u32
                        (Fs.inspect_block fs ~core ino.Fs.addrs.(Fs.ndirect + 1))
                        i)))
      in
      (* Holes are legal, so only flag sizes that could not possibly be
         backed: more precisely, a size requiring more blocks than the
         file could address. *)
      if ino.Fs.size > Fs.max_file_blocks * bsize then report (Bad_size inum)
      else ignore data_blocks
    end
  done;
  (* 2. Bitmap leaks: used bits in the data area nobody reaches. *)
  let data_start = Superblock.data_start sb in
  for blk = data_start to sb.Superblock.size - 1 do
    if bitmap_bit fs ~core blk && not (Hashtbl.mem owner blk) then
      report (Leaked_block blk)
  done;
  (* 3. Directory entries point at live inodes. *)
  let live = List.map fst !live_inodes in
  List.iter
    (fun (inum, name) -> if not (List.mem inum live) then report (Dangling_dirent (name, inum)))
    (Fs.list_dir fs ~core);
  List.rev !problems
