(** Simulated physical memory.

    Memory is an array of 4 KiB frames. Everything in the simulated machine
    lives here: guest page tables, EPTs, process code pages, stacks, shared
    buffers and file-system blocks. Addresses are host physical addresses
    (HPA) represented as OCaml [int] (63 usable bits, plenty for a 16 GiB
    machine). *)

type t

val frame_size : int
(** 4096. *)

val create : frames:int -> t
(** [create ~frames] makes a physical memory of [frames] zeroed 4 KiB
    frames. Frames are allocated lazily, so large memories are cheap until
    touched. *)

val size_bytes : t -> int
(** Total addressable bytes. *)

val frames : t -> int

val frame_of_addr : int -> int
(** Frame number containing a physical address. *)

val addr_of_frame : int -> int
(** Base physical address of a frame number. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit

val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit

val read_u64 : t -> int -> int64
(** [read_u64 mem pa] reads a little-endian 64-bit word. [pa] must be
    8-byte aligned and in range; raises [Invalid_argument] otherwise.
    May cross nothing: a u64 never spans frames given alignment. *)

val write_u64 : t -> int -> int64 -> unit

val equal_u64 : t -> int -> int64 -> bool
(** [equal_u64 mem pa v] is [read_u64 mem pa = v] (same checks), compared
    in place: the word read is never boxed. *)

val u64_frame : t -> int -> bytes
(** [u64_frame mem pa] makes exactly {!read_u64}'s checks (same
    exceptions) and returns the frame holding the word, which sits at
    offset [pa land (frame_size - 1)]. For allocation-free readers: an
    [int64] result is boxed whenever it crosses a module boundary in a
    build without cross-module inlining, so the page walker decodes
    entries in place instead ([Sky_mmu.Pte.Packed.read]). *)

val read_bytes : t -> int -> int -> bytes
(** [read_bytes mem pa len] copies [len] bytes starting at [pa]; may span
    frame boundaries. *)

val write_bytes : t -> int -> bytes -> unit

val equal_sub : t -> int -> bytes -> off:int -> len:int -> bool
(** [equal_sub mem pa b ~off ~len] compares the [len] bytes at [pa] with
    [b]'s bytes [off, off + len) in place, without a copy. May span frame
    boundaries. *)

val blit_to : t -> src_pa:int -> dst:bytes -> dst_off:int -> len:int -> unit
val blit_from : t -> src:bytes -> src_off:int -> dst_pa:int -> len:int -> unit

val zero_frame : t -> int -> unit
(** [zero_frame mem frame] clears one frame. *)

val touched_frames : t -> int
(** Number of frames that have actually been materialized (for tests and
    for reporting the Rootkernel's memory footprint). *)
