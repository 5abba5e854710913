(** A user process: page table, address-space bookkeeping, code pages. *)

type t = {
  pid : int;
  name : string;
  page_table : Sky_mmu.Page_table.t;
  mutable next_heap_va : int;
  mutable next_stack_va : int;
  mutable code : (int * bytes) list;  (** (va, bytes) executable regions *)
  mutable identity_frame : int;  (** PA of the identity page (0 = none) *)
  self : t option;  (** [Some] of this process, built once *)
}

let create ~pid ~name ~page_table =
  let rec p =
    {
      pid;
      name;
      page_table;
      next_heap_va = Layout.heap_va;
      next_stack_va = Layout.stack_top_va;
      code = [];
      identity_frame = 0;
      self = Some p;
    }
  in
  p

let cr3 t = Sky_mmu.Page_table.root_pa t.page_table

let bump_heap t len =
  let va = t.next_heap_va in
  t.next_heap_va <- (t.next_heap_va + len + 4095) land lnot 4095;
  va

(* Stacks grow down; carve fixed-size slots below the previous one. *)
let bump_stack t len =
  let len = (len + 4095) land lnot 4095 in
  t.next_stack_va <- t.next_stack_va - len - 4096 (* guard page *);
  t.next_stack_va
