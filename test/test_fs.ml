(* Tests for the block device, the xv6fs log file system (including
   crash-recovery property tests), and the FS wire protocol. *)

open Sky_ukernel
open Sky_blockdev
open Sky_xv6fs

let setup ?(nblocks = 4096) () =
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let rd = Ramdisk.create machine ~nblocks in
  (machine, k, rd)

let mkmount ?nblocks () =
  let _, k, rd = setup ?nblocks () in
  let disk = Disk.direct k rd in
  Fs.mkfs k disk ~core:0 ~size:(Ramdisk.nblocks rd) ();
  (k, rd, disk, Fs.mount k disk ~core:0)

(* ------------------------------------------------------------------ *)
(* Ramdisk                                                             *)
(* ------------------------------------------------------------------ *)

let test_ramdisk_rw () =
  let machine, _, rd = setup () in
  let cpu = Sky_sim.Machine.core machine 0 in
  let block = Bytes.init Ramdisk.block_size (fun i -> Char.chr (i land 0xff)) in
  Ramdisk.write rd cpu 5 block;
  Alcotest.(check bool) "roundtrip" true (Bytes.equal block (Ramdisk.read rd cpu 5));
  Alcotest.(check bool) "other block zero" true
    (Bytes.for_all (( = ) '\000') (Ramdisk.read rd cpu 6));
  Alcotest.(check int) "stats" 2 (Ramdisk.reads rd)

let test_ramdisk_bounds () =
  let machine, _, rd = setup () in
  let cpu = Sky_sim.Machine.core machine 0 in
  (try
     ignore (Ramdisk.read rd cpu (Ramdisk.nblocks rd));
     Alcotest.fail "expected out of range"
   with Invalid_argument _ -> ());
  try
    Ramdisk.write rd cpu 0 (Bytes.create 7);
    Alcotest.fail "expected bad length"
  with Invalid_argument _ -> ()

let test_blockdev_proto_roundtrip () =
  let block = Bytes.init Ramdisk.block_size (fun i -> Char.chr (i * 7 land 0xff)) in
  (match Proto.decode_request (Proto.encode_request (Proto.Read 42)) with
  | Proto.Read 42 -> ()
  | _ -> Alcotest.fail "read roundtrip");
  match Proto.decode_request (Proto.encode_request (Proto.Write (9, block))) with
  | Proto.Write (9, b) -> Alcotest.(check bool) "payload" true (Bytes.equal b block)
  | _ -> Alcotest.fail "write roundtrip"

let test_blockdev_over_ipc () =
  let machine, k, rd = setup () in
  ignore machine;
  let ipc = Sky_kernels.Ipc.create k in
  let server = Kernel.spawn k ~name:"blockdev" in
  let client = Kernel.spawn k ~name:"fs" in
  let ep = Sky_kernels.Ipc.register ipc server (Disk.handler k rd) in
  let disk = Disk.over_call (fun ~core msg -> Sky_kernels.Ipc.call ipc ~core ~client ep msg) in
  let block = Bytes.make Ramdisk.block_size 'x' in
  disk.Disk.write ~core:0 3 block;
  Alcotest.(check bool) "read back over IPC" true
    (Bytes.equal block (disk.Disk.read ~core:0 3))

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_commit_visible () =
  let k, rd, disk, fs = mkmount () in
  ignore (k, rd, disk);
  let inum = Fs.create fs ~core:0 "a" in
  Fs.write fs ~core:0 ~inum ~off:0 (Bytes.of_string "hello log");
  Alcotest.(check string) "read back" "hello log"
    (Bytes.to_string (Fs.read fs ~core:0 ~inum ~off:0 ~len:9));
  Alcotest.(check bool) "commits counted" true (Fs.log_commits fs > 0)

let test_log_absorption () =
  (* Writing the same block twice in one transaction logs it once. *)
  let k, rd, disk, fs = mkmount () in
  ignore (k, disk);
  let inum = Fs.create fs ~core:0 "a" in
  let w0 = Ramdisk.writes rd in
  Fs.write fs ~core:0 ~inum ~off:0 (Bytes.make 100 'x');
  let single = Ramdisk.writes rd - w0 in
  let w1 = Ramdisk.writes rd in
  (* Two 100-byte writes into the same block, one transaction each: the
     second transaction rewrites the same data block. *)
  Fs.write fs ~core:0 ~inum ~off:0 (Bytes.make 200 'y');
  let second = Ramdisk.writes rd - w1 in
  Alcotest.(check bool)
    (Printf.sprintf "second (%d) <= first (%d): no fresh allocations" second single)
    true (second <= single)

(* Crash injection: run a workload, crash after [n] disk writes, remount,
   and check the invariant: every file readable, every *committed* write
   present in full (no torn transactions). *)
let crash_after n =
  let _, k, rd = setup () in
  let raw = Disk.direct k rd in
  Fs.mkfs k raw ~core:0 ~size:(Ramdisk.nblocks rd) ();
  let budget = ref max_int in
  let disk = Disk.faulty raw ~fail_after:budget in
  let fs = Fs.mount k disk ~core:0 in
  let inum = Fs.create fs ~core:0 "f" in
  budget := n;
  let committed = ref 0 in
  (try
     (* Each write stores a full block of its own sequence number. *)
     for i = 1 to 50 do
       Fs.write fs ~core:0 ~inum
         ~off:((i - 1) * Fs.bsize)
         (Bytes.make Fs.bsize (Char.chr (i land 0xff)));
       committed := i
     done
   with Disk.Crash _ -> ());
  (* Power back on: remount on the pristine device and check. *)
  let fs' = Fs.mount k raw ~core:0 in
  let inum' =
    match Fs.lookup fs' ~core:0 "f" with Some i -> i | None -> Alcotest.fail "file lost"
  in
  ignore inum;
  let size = Fs.file_size fs' ~core:0 ~inum:inum' in
  let blocks = size / Fs.bsize in
  (* All-or-nothing: every block up to the recovered size is fully
     written with its own byte. *)
  for i = 1 to blocks do
    let b = Fs.read fs' ~core:0 ~inum:inum' ~off:((i - 1) * Fs.bsize) ~len:Fs.bsize in
    if not (Bytes.for_all (( = ) (Char.chr (i land 0xff))) b) then
      Alcotest.failf "torn write in block %d after crash at %d" i n
  done;
  (* Recovery never invents more data than was committed. *)
  Alcotest.(check bool)
    (Printf.sprintf "recovered %d blocks <= %d attempted" blocks (!committed + 1))
    true
    (blocks <= !committed + 1)

let test_crash_recovery_sweep () =
  (* Crash at many different points, including mid-commit. *)
  List.iter crash_after [ 0; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144 ]

let prop_crash_recovery =
  QCheck.Test.make ~name:"log recovery: committed data survives any crash point"
    ~count:25
    QCheck.(int_bound 200)
    (fun n ->
      crash_after n;
      true)

(* ------------------------------------------------------------------ *)
(* Fs                                                                  *)
(* ------------------------------------------------------------------ *)

let test_create_lookup_unlink () =
  let _, _, _, fs = mkmount () in
  let a = Fs.create fs ~core:0 "alpha" in
  let b = Fs.create fs ~core:0 "beta" in
  Alcotest.(check bool) "distinct inodes" true (a <> b);
  Alcotest.(check (option int)) "lookup" (Some a) (Fs.lookup fs ~core:0 "alpha");
  Alcotest.(check (option int)) "missing" None (Fs.lookup fs ~core:0 "gamma");
  Alcotest.(check (list string)) "dir list" [ "alpha"; "beta" ] (List.map snd (Fs.list_dir fs ~core:0));
  Alcotest.(check bool) "unlink" true (Fs.unlink fs ~core:0 "alpha");
  Alcotest.(check (option int)) "gone" None (Fs.lookup fs ~core:0 "alpha");
  Alcotest.(check bool) "unlink missing" false (Fs.unlink fs ~core:0 "alpha")

let test_create_idempotent () =
  let _, _, _, fs = mkmount () in
  let a = Fs.create fs ~core:0 "f" in
  Alcotest.(check int) "create twice = same inode" a (Fs.create fs ~core:0 "f")

let test_rw_offsets () =
  let _, _, _, fs = mkmount () in
  let inum = Fs.create fs ~core:0 "f" in
  Fs.write fs ~core:0 ~inum ~off:100 (Bytes.of_string "abc");
  Fs.write fs ~core:0 ~inum ~off:2000 (Bytes.of_string "xyz");
  Alcotest.(check int) "size" 2003 (Fs.file_size fs ~core:0 ~inum);
  Alcotest.(check string) "at 100" "abc"
    (Bytes.to_string (Fs.read fs ~core:0 ~inum ~off:100 ~len:3));
  Alcotest.(check string) "hole reads zero" "\000\000\000"
    (Bytes.to_string (Fs.read fs ~core:0 ~inum ~off:500 ~len:3));
  Alcotest.(check string) "spans blocks" "xyz"
    (Bytes.to_string (Fs.read fs ~core:0 ~inum ~off:2000 ~len:3))

let test_large_file_double_indirect () =
  let _, _, _, fs = mkmount ~nblocks:8192 () in
  let inum = Fs.create fs ~core:0 "big" in
  (* Write a block beyond the single-indirect range. *)
  let far = (Fs.ndirect + Fs.nindirect + 10) * Fs.bsize in
  Fs.write fs ~core:0 ~inum ~off:far (Bytes.of_string "deep");
  Alcotest.(check string) "double indirect" "deep"
    (Bytes.to_string (Fs.read fs ~core:0 ~inum ~off:far ~len:4));
  (* And unlink frees it without error. *)
  Alcotest.(check bool) "unlink big" true (Fs.unlink fs ~core:0 "big")

let test_reuse_after_unlink () =
  let _, _, _, fs = mkmount () in
  for round = 1 to 5 do
    let inum = Fs.create fs ~core:0 "tmp" in
    Fs.write fs ~core:0 ~inum ~off:0 (Bytes.make 5000 (Char.chr (round + 64)));
    Alcotest.(check bool) "unlink" true (Fs.unlink fs ~core:0 "tmp")
  done;
  (* Blocks were freed and reused: the disk did not run out. *)
  ()

let test_bad_names_rejected () =
  let _, _, _, fs = mkmount () in
  (try
     ignore (Fs.create fs ~core:0 "");
     Alcotest.fail "empty name"
   with Fs.Fs_error _ -> ());
  try
    ignore (Fs.create fs ~core:0 "this-name-is-way-too-long");
    Alcotest.fail "long name"
  with Fs.Fs_error _ -> ()

let prop_fs_random_files =
  QCheck.Test.make ~name:"random write/read patterns agree with a model" ~count:20
    QCheck.(
      list_of_size (Gen.int_range 1 25)
        (pair (int_bound 20000) (string_of_size (Gen.int_range 1 300))))
    (fun writes ->
      let _, _, _, fs = mkmount ~nblocks:8192 () in
      let inum = Fs.create fs ~core:0 "m" in
      let model = Bytes.make 32768 '\000' in
      let model_size = ref 0 in
      List.iter
        (fun (off, s) ->
          Fs.write fs ~core:0 ~inum ~off (Bytes.of_string s);
          Bytes.blit_string s 0 model off (String.length s);
          model_size := max !model_size (off + String.length s))
        writes;
      Fs.file_size fs ~core:0 ~inum = !model_size
      && Bytes.equal
           (Fs.read fs ~core:0 ~inum ~off:0 ~len:!model_size)
           (Bytes.sub model 0 !model_size))

(* ------------------------------------------------------------------ *)
(* Fsck                                                                *)
(* ------------------------------------------------------------------ *)

let assert_consistent fs =
  match Fsck.check fs ~core:0 with
  | [] -> ()
  | ps ->
    Alcotest.failf "fsck found: %s"
      (String.concat "; " (List.map Fsck.problem_to_string ps))

let test_fsck_fresh () =
  let _, _, _, fs = mkmount () in
  assert_consistent fs

let test_fsck_after_workload () =
  let _, _, _, fs = mkmount ~nblocks:8192 () in
  for i = 0 to 9 do
    let inum = Fs.create fs ~core:0 (Printf.sprintf "f%d" i) in
    Fs.write fs ~core:0 ~inum ~off:(i * 1000) (Bytes.make 3000 (Char.chr (65 + i)))
  done;
  ignore (Fs.unlink fs ~core:0 "f3");
  ignore (Fs.unlink fs ~core:0 "f7");
  let inum = Fs.create fs ~core:0 "big" in
  Fs.write fs ~core:0 ~inum ~off:((Fs.ndirect + 5) * Fs.bsize) (Bytes.make 100 'x');
  assert_consistent fs

let test_fsck_detects_bitmap_leak () =
  let _, rd, _, fs = mkmount () in
  let machine_cpu = Sky_sim.Machine.create ~cores:1 ~mem_mib:1 () in
  ignore machine_cpu;
  (* Corrupt the image behind the FS's back: set a random data-area bit. *)
  let sb = Fs.superblock fs in
  let data_start = Sky_xv6fs.Superblock.data_start sb in
  let cpu = Sky_sim.Machine.core (Sky_sim.Machine.create ~cores:1 ~mem_mib:1 ()) 0 in
  let bm = Ramdisk.read rd cpu sb.Sky_xv6fs.Superblock.bmapstart in
  let target = data_start + 17 in
  Bytes.set bm (target / 8)
    (Char.chr (Char.code (Bytes.get bm (target / 8)) lor (1 lsl (target mod 8))));
  Ramdisk.write rd cpu sb.Sky_xv6fs.Superblock.bmapstart bm;
  match Fsck.check fs ~core:0 with
  | [ Fsck.Leaked_block b ] -> Alcotest.(check int) "the flipped block" target b
  | ps ->
    Alcotest.failf "expected one leak, got [%s]"
      (String.concat "; " (List.map Fsck.problem_to_string ps))

let test_fsck_after_crash_recovery () =
  (* Crash mid-commit, remount (replaying the log), fsck must be clean. *)
  let _, k, rd = setup () in
  let raw = Disk.direct k rd in
  Fs.mkfs k raw ~core:0 ~size:(Ramdisk.nblocks rd) ();
  let budget = ref max_int in
  let disk = Disk.faulty raw ~fail_after:budget in
  let fs = Fs.mount k disk ~core:0 in
  let inum = Fs.create fs ~core:0 "f" in
  budget := 37;
  (try
     for i = 1 to 50 do
       Fs.write fs ~core:0 ~inum ~off:(i * 500) (Bytes.make 700 'z')
     done
   with Disk.Crash _ -> ());
  let fs' = Fs.mount k raw ~core:0 in
  assert_consistent fs'

(* ------------------------------------------------------------------ *)
(* FS wire protocol                                                    *)
(* ------------------------------------------------------------------ *)

let test_fs_over_ipc () =
  let _, k, rd = setup () in
  let raw = Disk.direct k rd in
  Fs.mkfs k raw ~core:0 ~size:(Ramdisk.nblocks rd) ();
  let fs = Fs.mount k raw ~core:0 in
  let ipc = Sky_kernels.Ipc.create k in
  let server = Kernel.spawn k ~name:"fs" in
  let client = Kernel.spawn k ~name:"app" in
  let ep = Sky_kernels.Ipc.register ipc server (Fs_iface.server_handler fs) in
  let iface =
    Fs_iface.over_call (fun ~core msg -> Sky_kernels.Ipc.call ipc ~core ~client ep msg)
  in
  let inum = iface.Fs_iface.create ~core:0 "remote" in
  iface.Fs_iface.write ~core:0 ~inum ~off:0 (Bytes.of_string "over ipc");
  Alcotest.(check string) "remote rw" "over ipc"
    (Bytes.to_string (iface.Fs_iface.read ~core:0 ~inum ~off:0 ~len:8));
  Alcotest.(check int) "size" 8 (iface.Fs_iface.size ~core:0 inum);
  Alcotest.(check (option int)) "lookup" (Some inum)
    (iface.Fs_iface.lookup ~core:0 "remote");
  Alcotest.(check bool) "unlink" true (iface.Fs_iface.unlink ~core:0 "remote")

let test_fs_iface_error_propagates () =
  let _, _, _, fs = mkmount () in
  let iface = Fs_iface.of_fs fs in
  try
    ignore (iface.Fs_iface.size ~core:0 9999);
    Alcotest.fail "expected Fs_error"
  with Fs.Fs_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Hostile wire bytes                                                  *)
(* ------------------------------------------------------------------ *)

(* Every request the FS server can be sent ends in a reply, [ok] or
   [err], never an exception. A request is an opcode byte, three
   little-endian int32 fields (small and negative values are likely)
   and a few payload bytes, cut at a random length: every short, long,
   negative and out-of-range shape. *)
let prop_fs_server_hostile =
  let handler =
    lazy
      (let _, _, _, fs = mkmount () in
       ignore (Fs.create fs ~core:0 "a");
       Fs_iface.server_handler fs)
  in
  let gen =
    QCheck.Gen.(
      let* op = int_range 0 7 in
      let* fields = list_repeat 3 (oneof [ int_range (-8) 64; int ]) in
      let* payload = string_size ~gen:char (int_range 0 8) in
      let* cut = int_range 0 (13 + String.length payload) in
      let b = Bytes.create 13 in
      Bytes.set b 0 (Char.chr op);
      List.iteri (fun i v -> Bytes.set_int32_le b (1 + (4 * i)) (Int32.of_int v)) fields;
      return (Bytes.sub (Bytes.cat b (Bytes.of_string payload)) 0 cut))
  in
  QCheck.Test.make ~name:"fs server answers hostile bytes" ~count:400
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen)
    (fun msg ->
      let reply = (Lazy.force handler) ~core:0 msg in
      Bytes.length reply >= 1 && (Bytes.get reply 0 = '\000' || Bytes.get reply 0 = '\001'))

(* A negative offset or length is refused as an [Fs_error], locally and
   over the wire. *)
let test_negative_range_refused () =
  let _, _, _, fs = mkmount () in
  let inum = Fs.create fs ~core:0 "a" in
  Fs.write fs ~core:0 ~inum ~off:0 (Bytes.of_string "0123456789");
  let refused f = match f () with _ -> false | exception Fs.Fs_error _ -> true in
  Alcotest.(check bool) "read at -5" true
    (refused (fun () -> Fs.read fs ~core:0 ~inum ~off:(-5) ~len:4));
  Alcotest.(check bool) "read of -1 bytes" true
    (refused (fun () -> Fs.read fs ~core:0 ~inum ~off:0 ~len:(-1)));
  Alcotest.(check bool) "write at -5" true
    (refused (fun () -> Fs.write fs ~core:0 ~inum ~off:(-5) (Bytes.of_string "x")));
  let remote = Fs_iface.over_call (fun ~core msg -> Fs_iface.server_handler fs ~core msg) in
  Alcotest.(check bool) "remote read at -5 answers err" true
    (match remote.Fs_iface.read ~core:0 ~inum ~off:(-5) ~len:4 with
    | _ -> false
    | exception Fs_iface.Remote_error _ -> true);
  Alcotest.(check string) "file intact" "0123456789"
    (Bytes.to_string (Fs.read fs ~core:0 ~inum ~off:0 ~len:10))

(* A wire write naming an inode that is not a file — free inode 7 or
   the root directory — answers [err]: the image stays fsck-clean and
   the directory keeps resolving names. *)
let test_write_non_file_refused () =
  let _, _, _, fs = mkmount () in
  let inum = Fs.create fs ~core:0 "a" in
  let remote = Fs_iface.over_call (fun ~core msg -> Fs_iface.server_handler fs ~core msg) in
  List.iter
    (fun target ->
      Alcotest.(check bool)
        (Printf.sprintf "write to inode %d answers err" target)
        true
        (match remote.Fs_iface.write ~core:0 ~inum:target ~off:0 (Bytes.make 40 'z') with
        | () -> false
        | exception Fs_iface.Remote_error _ -> true))
    [ 7; Fs.root_inum ];
  assert_consistent fs;
  Alcotest.(check (option int)) "lookup still works" (Some inum) (Fs.lookup fs ~core:0 "a")

(* The block device answers a well-formed request for a block on the
   device and refuses anything else with [Proto.Bad_message]. *)
let prop_blockdev_hostile =
  let nblocks = 64 in
  let handler =
    lazy
      (let _, k, rd = setup ~nblocks () in
       Disk.handler k rd)
  in
  let gen =
    QCheck.Gen.(
      let* op = int_range 0 3 in
      let* blockno = oneof [ int_range (-4) (nblocks + 4); int ] in
      let* len =
        oneofl [ 0; 1; 4; 5; 6; Ramdisk.block_size + 4; Ramdisk.block_size + 5; Ramdisk.block_size + 8 ]
      in
      let b = Bytes.make (max 5 len) 'z' in
      Bytes.set b 0 (Char.chr op);
      Bytes.set_int32_le b 1 (Int32.of_int blockno);
      return (Bytes.sub b 0 len))
  in
  QCheck.Test.make ~name:"blockdev server refuses hostile bytes typed" ~count:400
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen)
    (fun msg ->
      match (Lazy.force handler) ~core:0 msg with
      | _ -> true
      | exception Proto.Bad_message _ -> true)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fs"
    [
      ( "blockdev",
        [
          Alcotest.test_case "ramdisk rw" `Quick test_ramdisk_rw;
          Alcotest.test_case "bounds" `Quick test_ramdisk_bounds;
          Alcotest.test_case "proto roundtrip" `Quick test_blockdev_proto_roundtrip;
          Alcotest.test_case "over IPC" `Quick test_blockdev_over_ipc;
        ]
        @ qc [ prop_blockdev_hostile ] );
      ( "log",
        [
          Alcotest.test_case "commit visible" `Quick test_log_commit_visible;
          Alcotest.test_case "absorption" `Quick test_log_absorption;
          Alcotest.test_case "crash sweep" `Slow test_crash_recovery_sweep;
        ]
        @ qc [ prop_crash_recovery ] );
      ( "fs",
        [
          Alcotest.test_case "create/lookup/unlink" `Quick test_create_lookup_unlink;
          Alcotest.test_case "create idempotent" `Quick test_create_idempotent;
          Alcotest.test_case "offsets and holes" `Quick test_rw_offsets;
          Alcotest.test_case "double indirect" `Quick test_large_file_double_indirect;
          Alcotest.test_case "block reuse" `Quick test_reuse_after_unlink;
          Alcotest.test_case "bad names" `Quick test_bad_names_rejected;
        ]
        @ qc [ prop_fs_random_files ] );
      ( "fsck",
        [
          Alcotest.test_case "fresh image consistent" `Quick test_fsck_fresh;
          Alcotest.test_case "consistent after workload" `Quick
            test_fsck_after_workload;
          Alcotest.test_case "detects bitmap leak" `Quick
            test_fsck_detects_bitmap_leak;
          Alcotest.test_case "consistent after crash recovery" `Quick
            test_fsck_after_crash_recovery;
        ] );
      ( "fs_iface",
        [
          Alcotest.test_case "over IPC" `Quick test_fs_over_ipc;
          Alcotest.test_case "errors propagate" `Quick test_fs_iface_error_propagates;
          Alcotest.test_case "negative range refused" `Quick test_negative_range_refused;
          Alcotest.test_case "write to a non-file refused" `Quick test_write_non_file_refused;
        ]
        @ qc [ prop_fs_server_hostile ] );
    ]
