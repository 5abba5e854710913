let frame_size = 4096
let frame_shift = 12

type t = {
  nframes : int;
  frames : bytes option array;
  mutable touched : int;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames <= 0";
  { nframes = frames; frames = Array.make frames None; touched = 0 }

let size_bytes t = t.nframes * frame_size
let frames t = t.nframes
let frame_of_addr pa = pa lsr frame_shift
let addr_of_frame f = f lsl frame_shift

let get_frame t f =
  if f < 0 || f >= t.nframes then
    invalid_arg (Printf.sprintf "Phys_mem: frame %d out of range" f);
  match t.frames.(f) with
  | Some b -> b
  | None ->
    let b = Bytes.make frame_size '\000' in
    t.frames.(f) <- Some b;
    t.touched <- t.touched + 1;
    b

let check_range t pa len =
  if pa < 0 || len < 0 || pa + len > size_bytes t then
    invalid_arg
      (Printf.sprintf "Phys_mem: access [%#x, +%d) out of range" pa len)

let read_u8 t pa =
  check_range t pa 1;
  let b = get_frame t (frame_of_addr pa) in
  Char.code (Bytes.get b (pa land (frame_size - 1)))

let write_u8 t pa v =
  check_range t pa 1;
  let b = get_frame t (frame_of_addr pa) in
  Bytes.set b (pa land (frame_size - 1)) (Char.chr (v land 0xff))

let aligned pa n = pa land (n - 1) = 0

let read_u16 t pa =
  check_range t pa 2;
  if aligned pa 2 then
    let b = get_frame t (frame_of_addr pa) in
    Bytes.get_uint16_le b (pa land (frame_size - 1))
  else read_u8 t pa lor (read_u8 t (pa + 1) lsl 8)

let write_u16 t pa v =
  check_range t pa 2;
  if aligned pa 2 then
    let b = get_frame t (frame_of_addr pa) in
    Bytes.set_uint16_le b (pa land (frame_size - 1)) (v land 0xffff)
  else begin
    write_u8 t pa v;
    write_u8 t (pa + 1) (v lsr 8)
  end

let read_u32 t pa =
  check_range t pa 4;
  if aligned pa 4 then
    let b = get_frame t (frame_of_addr pa) in
    Int32.to_int (Bytes.get_int32_le b (pa land (frame_size - 1))) land 0xffffffff
  else read_u16 t pa lor (read_u16 t (pa + 2) lsl 16)

let write_u32 t pa v =
  check_range t pa 4;
  if aligned pa 4 then
    let b = get_frame t (frame_of_addr pa) in
    Bytes.set_int32_le b (pa land (frame_size - 1)) (Int32.of_int v)
  else begin
    write_u16 t pa v;
    write_u16 t (pa + 2) (v lsr 16)
  end

(* The page walker's entry read: checks and frame lookup inline. *)
let u64_frame t pa =
  if pa < 0 || pa + 8 > t.nframes * frame_size then check_range t pa 8;
  if pa land 7 <> 0 then
    invalid_arg (Printf.sprintf "Phys_mem.read_u64: unaligned %#x" pa);
  match t.frames.(pa lsr frame_shift) with
  | Some b -> b
  | None -> get_frame t (pa lsr frame_shift)

let read_u64 t pa = Bytes.get_int64_le (u64_frame t pa) (pa land (frame_size - 1))

(* [=] at type [int64] compares unboxed: nothing is allocated. *)
let equal_u64 t pa (v : int64) =
  Bytes.get_int64_le (u64_frame t pa) (pa land (frame_size - 1)) = v

let write_u64 t pa v =
  check_range t pa 8;
  if not (aligned pa 8) then
    invalid_arg (Printf.sprintf "Phys_mem.write_u64: unaligned %#x" pa);
  let b = get_frame t (frame_of_addr pa) in
  Bytes.set_int64_le b (pa land (frame_size - 1)) v

(* Frame-by-frame copies, as toplevel loops: a packet or value copy
   allocates nothing but its destination. *)
let rec read_frames t pa dst off remaining =
  if remaining > 0 then begin
    let b = get_frame t (frame_of_addr pa) in
    let in_frame = pa land (frame_size - 1) in
    let n = min remaining (frame_size - in_frame) in
    Bytes.blit b in_frame dst off n;
    read_frames t (pa + n) dst (off + n) (remaining - n)
  end

let blit_to t ~src_pa ~dst ~dst_off ~len =
  check_range t src_pa len;
  read_frames t src_pa dst dst_off len

let rec write_frames t src off pa remaining =
  if remaining > 0 then begin
    let b = get_frame t (frame_of_addr pa) in
    let in_frame = pa land (frame_size - 1) in
    let n = min remaining (frame_size - in_frame) in
    Bytes.blit src off b in_frame n;
    write_frames t src (off + n) (pa + n) (remaining - n)
  end

let blit_from t ~src ~src_off ~dst_pa ~len =
  check_range t dst_pa len;
  write_frames t src src_off dst_pa len

let read_bytes t pa len =
  let dst = Bytes.create len in
  blit_to t ~src_pa:pa ~dst ~dst_off:0 ~len;
  dst

(* A toplevel loop, frame by frame: comparing allocates nothing. *)
let rec equal_from t pa b off stop =
  off >= stop
  ||
  let frame = get_frame t (frame_of_addr pa) in
  let in_frame = pa land (frame_size - 1) in
  let n = min (stop - off) (frame_size - in_frame) in
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get frame (in_frame + !i) = Bytes.unsafe_get b (off + !i) do
    incr i
  done;
  !i = n && equal_from t (pa + n) b (off + n) stop

let equal_sub t pa b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Phys_mem.equal_sub";
  check_range t pa len;
  equal_from t pa b off (off + len)

let write_bytes t pa src =
  blit_from t ~src ~src_off:0 ~dst_pa:pa ~len:(Bytes.length src)

let zero_frame t f =
  match t.frames.(f) with
  | None -> ()
  | Some b -> Bytes.fill b 0 frame_size '\000'

let touched_frames t = t.touched
