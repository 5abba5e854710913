(** Scanning executable bytes for VMFUNC encodings (§5.2).

    A VMFUNC is the byte sequence [0F 01 D4]. It can appear as an actual
    instruction (C1), spanning the boundary of two or more instructions
    (C2), or embedded in the ModRM/SIB/displacement/immediate fields of a
    longer instruction (C3). The scanner decodes from the start of the
    buffer, bookkeeping instruction boundaries to classify each
    occurrence. *)

type field = In_modrm | In_sib | In_disp | In_imm | In_opcode

type case =
  | C1_vmfunc  (** the instruction {e is} VMFUNC *)
  | C2_spanning  (** the pattern crosses an instruction boundary *)
  | C3_embedded of field  (** inside one longer instruction *)

type occurrence = {
  at : int;  (** byte offset of the 0F *)
  case : case;
  span : Sky_isa.Decode.decoded list;
      (** the instruction(s) whose bytes contain the pattern, in order *)
}

val vmfunc_bytes : bytes
(** [0F 01 D4]. *)

val wrpkru_bytes : bytes
(** [0F 01 EF] — the WRPKRU encoding the MPK backend's binary audit
    hunts for, exactly as ERIM's inspection pass does. *)

val find_pattern : bytes -> int list
(** All byte offsets where {!vmfunc_bytes} occurs, boundary-oblivious. *)

val find_wrpkru : bytes -> int list
(** All byte offsets where {!wrpkru_bytes} occurs. *)

val count_pattern : bytes -> int

val find_pattern_chunked : ?pattern:bytes -> (int * bytes) list -> int list
(** [find_pattern_chunked chunks] scans [(global_offset, bytes)] pieces of
    a region in increasing-offset order, carrying a [len-1]-byte overlap
    across contiguous chunk boundaries so a pattern split across two
    chunks is still found. A gap between chunks resets the carry. Returns
    sorted global offsets. *)

val find_pattern_paged : ?pattern:bytes -> bytes -> int list
(** All byte offsets where [pattern] (default {!vmfunc_bytes}) occurs,
    with the buffer scanned in 4096-byte pages — the shape a per-page
    audit sees; equivalent to the contiguous scan. *)

val scan : bytes -> occurrence list
(** Classified VMFUNC occurrences, in increasing [at] order. *)

val case_name : case -> string
