(** A user process: its page table, address-space bookkeeping and the
    record of its executable regions (which the SkyBridge rewriter scans
    at registration). *)

type t = {
  pid : int;
  name : string;
  page_table : Sky_mmu.Page_table.t;
  mutable next_heap_va : int;
  mutable next_stack_va : int;
  mutable code : (int * bytes) list;  (** (va, original bytes) regions *)
  mutable identity_frame : int;
      (** PA of the §4.2 identity page (0 before {!Kernel.spawn} fills it) *)
  self : t option;
      (** [Some] of this process, built once: what {!Kernel} stores as a
          core's running process, so a context switch allocates nothing *)
}

val create : pid:int -> name:string -> page_table:Sky_mmu.Page_table.t -> t

val cr3 : t -> int
(** The process's CR3 value — the GPA whose remapping in a server EPT is
    the §4.3 trick. *)

val bump_heap : t -> int -> int
(** Reserve [len] bytes of heap VA space (page-rounded); returns the VA. *)

val bump_stack : t -> int -> int
(** Carve a stack slot below the previous one, leaving a guard page;
    returns the {e base} (lowest VA) of the slot. *)
