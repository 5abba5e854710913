(** Virtual Machine Control Structure — the slice SkyBridge needs (§2.2):
    the EPTP list (up to 512 entries), the currently installed EPTP
    index, the VPID control and VM-exit statistics.

    The Rootkernel (lib/core) owns the policy: which events exit and what
    the handlers do; the VMCS is passive state. *)

type exit_reason =
  | Exit_cpuid
  | Exit_vmcall
  | Exit_ept_violation
  | Exit_invalid_vmfunc

val exit_reason_name : exit_reason -> string

val eptp_list_size : int
(** 512 — the hardware limit the §10 LRU-eviction extension works around. *)

type t = {
  eptp_list : int array;
  mutable current_index : int;
  mutable vpid_enabled : bool;
  exit_counts : int array;
  mutable total_exits : int;
}

val create : ?vpid:bool -> unit -> t
(** [vpid] defaults to true; without it every EPTP switch flushes the
    TLBs ({!Vmfunc.execute}). *)

val set_eptp : t -> index:int -> eptp:int -> unit
val eptp_at : t -> index:int -> int

val install_list : t -> int list -> unit
(** Replace the whole list (slot 0 first) and reset the current index to
    0 — what the Subkernel does through a VMCALL before scheduling a new
    process (§4.2). *)

val current_eptp : t -> int
val current_index : t -> int
val record_exit : t -> exit_reason -> unit
val exits : t -> exit_reason -> int
val total_exits : t -> int
