(** SQLite3-like storage engine facade: a keyed table in one FS file,
    with a rollback journal file protecting every write transaction.

    This reproduces the FS traffic pattern that makes the paper's
    Table 4 shape: Insert/Update/Delete run a full journal cycle
    (journal write + table page writes, each an FS call, each FS call a
    logged multi-block disk transaction), while Query is served almost
    entirely from the pager's internal cache. *)

type t = {
  fs : Sky_xv6fs.Fs_iface.t;
  kernel : Sky_ukernel.Kernel.t;
  name : string;
  pager : Pager.t;
  tree : Btree.t;
  journal_inum : int;
  db_lock : Sky_ukernel.Lock.t;
      (** SQLite's database file lock: one writer at a time, held across
          the whole journaled transaction; readers take it briefly. This
          — together with the xv6fs big lock — is what collapses the
          YCSB curves as threads are added (Figures 9–11). *)
}

(* Per-operation CPU work of the SQL layer (parsing, planning, record
   packing) — calibrated so absolute throughputs land in the paper's
   range on the simulated 4 GHz clock. *)
let sql_compute_cycles = 80_000
let query_compute_cycles = 40_000

let journal_hot_magic = 0x4a524e4c (* "JRNL" *)

(* Crash recovery: a hot journal means a transaction died mid-write;
   restore the saved page image and cool the journal. *)
let recover kernel fs ~core ~inum ~journal_inum =
  ignore kernel;
  if fs.Sky_xv6fs.Fs_iface.size ~core journal_inum >= 8 then begin
    let hdr = fs.Sky_xv6fs.Fs_iface.read ~core ~inum:journal_inum ~off:0 ~len:8 in
    if Int32.to_int (Bytes.get_int32_le hdr 0) = journal_hot_magic then begin
      let page = Int32.to_int (Bytes.get_int32_le hdr 4) in
      let image =
        fs.Sky_xv6fs.Fs_iface.read ~core ~inum:journal_inum ~off:Pager.page_size
          ~len:Pager.page_size
      in
      fs.Sky_xv6fs.Fs_iface.write ~core ~inum ~off:(page * Pager.page_size) image;
      fs.Sky_xv6fs.Fs_iface.write ~core ~inum:journal_inum ~off:0
        (Bytes.make 64 '\000');
      true
    end
    else false
  end
  else false


let create kernel fs ~core ~name ~value_size =
  let inum = fs.Sky_xv6fs.Fs_iface.create ~core name in
  let journal_inum = fs.Sky_xv6fs.Fs_iface.create ~core (name ^ "-jnl") in
  let pager = Pager.create kernel fs ~core ~inum in
  let tree = Btree.create pager ~core ~value_size in
  { fs; kernel; name; pager; tree; journal_inum;
    db_lock = Sky_ukernel.Lock.create (name ^ "-dblock") }

let open_ kernel fs ~core ~name =
  match fs.Sky_xv6fs.Fs_iface.lookup ~core name with
  | None -> invalid_arg (Printf.sprintf "Db.open_: no table %s" name)
  | Some inum ->
    let journal_inum =
      match fs.Sky_xv6fs.Fs_iface.lookup ~core (name ^ "-jnl") with
      | Some j -> j
      | None -> fs.Sky_xv6fs.Fs_iface.create ~core (name ^ "-jnl")
    in
    (* Roll a hot journal back before reading any page. *)
    ignore (recover kernel fs ~core ~inum ~journal_inum);
    let pager = Pager.create kernel fs ~core ~inum in
    let tree = Btree.open_ pager ~core in
    { fs; kernel; name; pager; tree; journal_inum;
      db_lock = Sky_ukernel.Lock.create (name ^ "-dblock") }

let compute t ~core cycles = Sky_ukernel.Kernel.user_compute t.kernel ~core ~cycles

(* A write transaction, SQLite rollback-journal style: save the original
   image of the page about to change into the journal, write the journal
   header (the rollback commit point), run the mutation (whose page
   writes go through the FS), then reset the header — the "delete journal
   on commit" step. Every arrow here is an FS call, i.e. IPC traffic, and
   a crash between the header write and the reset is rolled back by
   {!recover} on the next open. *)

let with_tx t ~core ~page f =
  Sky_ukernel.Lock.acquire t.db_lock (Sky_ukernel.Kernel.cpu t.kernel ~core);
  Fun.protect
    ~finally:(fun () ->
      Sky_ukernel.Lock.release t.db_lock (Sky_ukernel.Kernel.cpu t.kernel ~core))
  @@ fun () ->
  (* 1. Rollback image. *)
  let original = Pager.read t.pager ~core page in
  t.fs.Sky_xv6fs.Fs_iface.write ~core ~inum:t.journal_inum ~off:Pager.page_size
    original;
  (* 2. Hot journal header naming the page. *)
  let jhdr = Bytes.make Pager.page_size '\000' in
  Bytes.set_int32_le jhdr 0 (Int32.of_int journal_hot_magic);
  Bytes.set_int32_le jhdr 4 (Int32.of_int page);
  t.fs.Sky_xv6fs.Fs_iface.write ~core ~inum:t.journal_inum ~off:0 jhdr;
  (* 3. The mutation. *)
  let r = f () in
  (* 4. Commit: cool the journal. *)
  t.fs.Sky_xv6fs.Fs_iface.write ~core ~inum:t.journal_inum ~off:0
    (Bytes.make 64 '\000');
  r

(* The page an operation will dirty first: its leaf. *)
let leaf_of t ~core ~key =
  let _, leaf_pg, _ = Btree.find_leaf t.tree ~core key in
  leaf_pg

(* The SQL-layer compute happens inside the transaction (BEGIN..COMMIT
   holds SQLite's exclusive lock around the whole statement). *)
let insert t ~core ~key ~value =
  with_tx t ~core ~page:(leaf_of t ~core ~key) (fun () ->
      compute t ~core sql_compute_cycles;
      Btree.insert t.tree ~core ~key ~value)

let update t ~core ~key ~value =
  with_tx t ~core ~page:(leaf_of t ~core ~key) (fun () ->
      compute t ~core sql_compute_cycles;
      Btree.update t.tree ~core ~key ~value)

let query t ~core ~key =
  compute t ~core query_compute_cycles;
  (* Readers take the shared file lock briefly (blocked while a writer
     holds it exclusively). *)
  Sky_ukernel.Lock.with_lock t.db_lock (Sky_ukernel.Kernel.cpu t.kernel ~core)
    (fun () -> Btree.query t.tree ~core key)

let delete t ~core ~key =
  with_tx t ~core ~page:(leaf_of t ~core ~key) (fun () ->
      compute t ~core sql_compute_cycles;
      Btree.delete t.tree ~core ~key)

let pager t = t.pager
let tree t = t.tree
let name t = t.name
