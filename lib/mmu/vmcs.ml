(** Virtual Machine Control Structure (the slice SkyBridge needs).

    Holds the EPTP list (up to 512 entries, §2.2), the currently installed
    EPTP index, the VPID setting and VM-exit statistics. The Rootkernel
    (lib/core) owns the policy: which events exit, and what the handlers
    do. *)

type exit_reason =
  | Exit_cpuid
  | Exit_vmcall
  | Exit_ept_violation
  | Exit_invalid_vmfunc

let exit_reason_name = function
  | Exit_cpuid -> "CPUID"
  | Exit_vmcall -> "VMCALL"
  | Exit_ept_violation -> "EPT_VIOLATION"
  | Exit_invalid_vmfunc -> "INVALID_VMFUNC"

let eptp_list_size = 512

type t = {
  eptp_list : int array;  (** EPTP (root PA) per slot; 0 = invalid *)
  mutable current_index : int;
  mutable vpid_enabled : bool;
  exit_counts : int array;
  mutable total_exits : int;
}

let create ?(vpid = true) () =
  {
    eptp_list = Array.make eptp_list_size 0;
    current_index = 0;
    vpid_enabled = vpid;
    exit_counts = Array.make 4 0;
    total_exits = 0;
  }

let reason_index = function
  | Exit_cpuid -> 0
  | Exit_vmcall -> 1
  | Exit_ept_violation -> 2
  | Exit_invalid_vmfunc -> 3

let set_eptp t ~index ~eptp =
  if index < 0 || index >= eptp_list_size then
    invalid_arg "Vmcs.set_eptp: index out of range";
  t.eptp_list.(index) <- eptp

let eptp_at t ~index = t.eptp_list.(index)
let current_eptp t = t.eptp_list.(t.current_index)
let current_index t = t.current_index

let install_list t eptps =
  (* Installed by the Subkernel (via the Rootkernel) before scheduling a
     new process: slot 0 is the process's own EPT, the rest are the EPTs
     of the servers it may call (§4.2). *)
  Array.fill t.eptp_list 0 eptp_list_size 0;
  List.iteri (fun i e -> if i < eptp_list_size then t.eptp_list.(i) <- e) eptps;
  t.current_index <- 0

let record_exit t reason =
  t.exit_counts.(reason_index reason) <- t.exit_counts.(reason_index reason) + 1;
  t.total_exits <- t.total_exits + 1

let exits t reason = t.exit_counts.(reason_index reason)
let total_exits t = t.total_exits
