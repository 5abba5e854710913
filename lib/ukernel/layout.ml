(** Virtual address-space layout of a simulated process.

    Mirrors a conventional x86-64 layout: the second page (0x1000) is
    deliberately left unmapped for the rewrite page (§5.1) until
    SkyBridge claims it, code sits at 0x400000, the heap above it, stacks
    high, and the SkyBridge trampoline/shared pages in a reserved window
    below the stacks. *)

let rewrite_page_va = 0x1000
let code_va = 0x400000
let heap_va = 0x1000_0000
let trampoline_va = 0x7000_0000
let skybridge_buffer_va = 0x7200_0000
let identity_page_va = 0x7300_0000
let stack_top_va = 0x7ff0_0000

(** Guest-physical address of the per-process identity page (§4.2): the
    same GPA in every EPT, mapped to a different frame per process. Must
    lie outside the identity-mapped physical range, so EPT clones remap
    it explicitly. *)
let identity_gpa = 0x4000_0000
