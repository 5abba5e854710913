(** 64-bit page-table / EPT entry encoding.

    Uses the x86-64 layout: bit 0 present (EPT: read), bit 1 writable,
    bit 2 user (EPT: execute), bit 5 accessed, bit 6 dirty, bit 7 PS
    (huge page, at PDPT/PD level), bit 63 NX. The physical frame number
    occupies bits 12..51. *)

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  huge : bool;
  nx : bool;
}

let rw = { present = true; writable = true; user = false; huge = false; nx = false }
let urw = { rw with user = true }
let urx = { present = true; writable = false; user = true; huge = false; nx = false }
let ur = { present = true; writable = false; user = true; huge = false; nx = true }
let kernel_rx = { present = true; writable = false; user = false; huge = false; nx = false }
let absent = { present = false; writable = false; user = false; huge = false; nx = false }

(* Bit positions of the x86-64 layout. *)
let b_present = 0
let b_writable = 1
let b_user = 2
let b_huge = 7
let b_nx = 63

let bit b v = if v then Int64.shift_left 1L b else 0L
let test v b = Int64.logand (Int64.shift_right_logical v b) 1L = 1L

let addr_mask = 0x000F_FFFF_FFFF_F000L

let encode ~pa flags =
  let open Int64 in
  if pa land 0xfff <> 0 then
    invalid_arg (Printf.sprintf "Pte.encode: unaligned pa %#x" pa);
  logor
    (logand (of_int pa) addr_mask)
    (logor (bit b_present flags.present)
       (logor (bit b_writable flags.writable)
          (logor (bit b_user flags.user)
             (logor (bit b_huge flags.huge) (bit b_nx flags.nx)))))

let decode v =
  let pa = Int64.to_int (Int64.logand v addr_mask) in
  ( pa,
    {
      present = test v b_present;
      writable = test v b_writable;
      user = test v b_user;
      huge = test v b_huge;
      nx = test v b_nx;
    } )

let is_present v = test v b_present
let zero = 0L

module Packed = struct
  (* The frame address keeps bits 12..51; present, writable, user and
     huge keep their own low bits; NX (bit 63, outside an OCaml int)
     moves to the ignored bit 11. Everything else is dropped, as
     {!decode} drops it. *)
  let addr_mask = Int64.to_int addr_mask
  let present_mask = 1 lsl b_present
  let writable_mask = 1 lsl b_writable
  let user_mask = 1 lsl b_user
  let huge_mask = 1 lsl b_huge
  let nx_mask = 1 lsl 11
  let kept_bits = addr_mask lor present_mask lor writable_mask lor user_mask lor huge_mask

  let read mem pa =
    let v =
      Bytes.get_int64_le (Sky_mem.Phys_mem.u64_frame mem pa)
        (pa land (Sky_mem.Phys_mem.frame_size - 1))
    in
    Int64.to_int v land kept_bits
    lor (Int64.to_int (Int64.shift_right_logical v b_nx) * nx_mask)
end
