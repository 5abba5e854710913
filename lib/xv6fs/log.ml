(** Write-ahead log (xv6's [log.c]): transactions are all-or-nothing
    across crashes.

    [begin_op] opens a transaction; writes are absorbed into a pending
    set; [end_op] commits: (1) copy every dirty block into the log area,
    (2) write the header block — the commit point, (3) install the
    blocks to their home locations, (4) clear the header. Mounting after
    a crash replays any committed-but-uninstalled transaction. *)

let bsize = Sky_blockdev.Ramdisk.block_size

exception Log_full
exception Nested_transaction

type t = {
  disk : Sky_blockdev.Disk.t;
  sb : Superblock.t;
  bcache : Bcache.t;
  pending : (int, bytes) Hashtbl.t;  (** home blockno -> data *)
  mutable order : int list;  (** insertion order, reversed *)
  mutable in_tx : bool;
  mutable commits : int;
  mutable absorbed : int;
}

let create disk sb bcache =
  {
    disk;
    sb;
    bcache;
    pending = Hashtbl.create 16;
    order = [];
    in_tx = false;
    commits = 0;
    absorbed = 0;
  }

let max_blocks t = t.sb.Superblock.nlog - 1 (* minus the header block *)

let begin_op t =
  if t.in_tx then raise Nested_transaction;
  t.in_tx <- true

(* Record a block write in the transaction (xv6's [log_write]). *)
let write t blockno data =
  if not t.in_tx then invalid_arg "Log.write outside transaction";
  if Bytes.length data <> bsize then invalid_arg "Log.write: bad length";
  if Hashtbl.mem t.pending blockno then t.absorbed <- t.absorbed + 1
  else begin
    if Hashtbl.length t.pending >= max_blocks t then raise Log_full;
    t.order <- blockno :: t.order
  end;
  Hashtbl.replace t.pending blockno (Bytes.copy data)

let encode_header blocknos =
  let b = Bytes.make bsize '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int (List.length blocknos));
  List.iteri
    (fun i bn -> Bytes.set_int32_le b ((i + 1) * 4) (Int32.of_int bn))
    blocknos;
  b

let decode_header b =
  let n = Int32.to_int (Bytes.get_int32_le b 0) in
  List.init n (fun i -> Int32.to_int (Bytes.get_int32_le b ((i + 1) * 4)))

let logstart t = t.sb.Superblock.logstart

let end_op t cpu ~core =
  if not t.in_tx then invalid_arg "Log.end_op outside transaction";
  let blocknos = List.rev t.order in
  if blocknos <> [] then begin
    (* 1. Data to the log area. *)
    List.iteri
      (fun i bn ->
        t.disk.Sky_blockdev.Disk.write ~core
          (logstart t + 1 + i)
          (Hashtbl.find t.pending bn))
      blocknos;
    (* 2. Header — the commit point. *)
    t.disk.Sky_blockdev.Disk.write ~core (logstart t) (encode_header blocknos);
    (* 3. Install to home locations (and refresh the cache). *)
    List.iter
      (fun bn ->
        let data = Hashtbl.find t.pending bn in
        t.disk.Sky_blockdev.Disk.write ~core bn data;
        Bcache.put t.bcache cpu bn data)
      blocknos;
    (* 4. Clear the header. *)
    t.disk.Sky_blockdev.Disk.write ~core (logstart t) (encode_header []);
    t.commits <- t.commits + 1
  end;
  Hashtbl.reset t.pending;
  t.order <- [];
  t.in_tx <- false

(* Transaction-aware read: pending writes are visible to the transaction
   that made them. *)
let read t cpu ~core blockno =
  match Hashtbl.find_opt t.pending blockno with
  | Some data -> Bytes.copy data
  | None ->
    Bcache.get t.bcache cpu blockno ~load:(fun () ->
        t.disk.Sky_blockdev.Disk.read ~core blockno)

(* Crash recovery (xv6's [recover_from_log]): replay a committed
   transaction whose installation may have been cut short. *)
let recover disk sb ~core =
  let header = disk.Sky_blockdev.Disk.read ~core sb.Superblock.logstart in
  let blocknos = decode_header header in
  List.iteri
    (fun i bn ->
      let data = disk.Sky_blockdev.Disk.read ~core (sb.Superblock.logstart + 1 + i) in
      disk.Sky_blockdev.Disk.write ~core bn data)
    blocknos;
  disk.Sky_blockdev.Disk.write ~core sb.Superblock.logstart (encode_header []);
  List.length blocknos

(* Abandon the in-memory transaction (crash or error mid-op): nothing
   reached the log header, so recovery discards it. *)
let abort t =
  Hashtbl.reset t.pending;
  t.order <- [];
  t.in_tx <- false

let commits t = t.commits
