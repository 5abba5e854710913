(** Transport-independent block-device interface.

    The file system talks to whatever this record wraps: the raw RAM disk
    in the same address space (Baseline), a server reached over any
    call edge (IPC, the paper's evaluated configuration, or SkyBridge),
    or a fault-injecting wrapper used by the crash-recovery tests. *)

type t = { read : core:int -> int -> bytes; write : core:int -> int -> bytes -> unit }

exception Crash of { writes_completed : int }

(* Same-process access: device work charged on the calling core. *)
let direct kernel rd =
  {
    read = (fun ~core blockno -> Ramdisk.read rd (Sky_ukernel.Kernel.cpu kernel ~core) blockno);
    write =
      (fun ~core blockno data ->
        Ramdisk.write rd (Sky_ukernel.Kernel.cpu kernel ~core) blockno data);
  }

(* A request's block number, refused unless it lies on the device. *)
let on_device rd blockno =
  if blockno < 0 || blockno >= Ramdisk.nblocks rd then
    raise (Proto.Bad_message (Printf.sprintf "block %d outside the device" blockno));
  blockno

(* The IPC server side: decode, execute against the RAM disk on the
   serving core. Hostile bytes end in [Proto.Bad_message]. *)
let handler kernel rd : Sky_kernels.Ipc.handler =
 fun ~core msg ->
  let cpu = Sky_ukernel.Kernel.cpu kernel ~core in
  match Proto.decode_request msg with
  | Proto.Read blockno -> Proto.encode_read_reply (Ramdisk.read rd cpu (on_device rd blockno))
  | Proto.Write (blockno, data) ->
    Ramdisk.write rd cpu (on_device rd blockno) data;
    Proto.write_ack

(* The client side over any request/reply transport, as
   {!Sky_xv6fs.Fs_iface.over_call} is for the file system. *)
let over_call call =
  {
    read = (fun ~core blockno -> call ~core (Proto.encode_request (Proto.Read blockno)));
    write =
      (fun ~core blockno data ->
        ignore (call ~core (Proto.encode_request (Proto.Write (blockno, data)))));
  }

(* Crash injection: the machine "loses power" after [fail_after] more
   block writes — mid-transaction crashes for the log-recovery tests. *)
let faulty inner ~fail_after =
  let completed = ref 0 in
  {
    read = inner.read;
    write =
      (fun ~core blockno data ->
        if !fail_after <= 0 then raise (Crash { writes_completed = !completed })
        else begin
          decr fail_after;
          incr completed;
          inner.write ~core blockno data
        end);
  }
