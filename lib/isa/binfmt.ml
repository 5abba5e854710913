(** A minimal executable-image format ("SKYB") — the shape of binary the
    Subkernel loads and, at SkyBridge registration, scans.

    Real systems hand the rewriter ELF executables with several
    executable sections and plenty of non-executable data that may
    legitimately contain [0F 01 D4]; this format reproduces that
    structure: a header, then sections with a virtual address, a kind
    (exec / read-only / read-write) and raw contents. Only executable
    sections are scanned and rewritten; data is mapped NX and left
    byte-identical. *)

type kind = Text | Rodata | Data

type section = { name : string; vaddr : int; kind : kind; body : bytes }

type image = { entry : int; sections : section list }

exception Bad_image of string

let magic = "SKYB"

let kind_code = function Text -> 1 | Rodata -> 2 | Data -> 3

let kind_of_code = function
  | 1 -> Text
  | 2 -> Rodata
  | 3 -> Data
  | n -> raise (Bad_image (Printf.sprintf "bad section kind %d" n))

(* Layout: magic | entry u32 | nsections u32 | sections.
   Section: kind u8 | name_len u8 | name | vaddr u32 | body_len u32 | body. *)
let encode img =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  let u32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Buffer.add_bytes buf b
  in
  u32 img.entry;
  u32 (List.length img.sections);
  List.iter
    (fun s ->
      if String.length s.name > 255 then raise (Bad_image "section name too long");
      Buffer.add_char buf (Char.chr (kind_code s.kind));
      Buffer.add_char buf (Char.chr (String.length s.name));
      Buffer.add_string buf s.name;
      u32 s.vaddr;
      u32 (Bytes.length s.body);
      Buffer.add_bytes buf s.body)
    img.sections;
  Buffer.to_bytes buf

let decode raw =
  let pos = ref 0 in
  let need n =
    if !pos + n > Bytes.length raw then raise (Bad_image "truncated image")
  in
  let u8 () =
    need 1;
    let v = Char.code (Bytes.get raw !pos) in
    incr pos;
    v
  in
  let u32 () =
    need 4;
    let v = Int32.to_int (Bytes.get_int32_le raw !pos) in
    pos := !pos + 4;
    v
  in
  let str n =
    need n;
    let s = Bytes.sub_string raw !pos n in
    pos := !pos + n;
    s
  in
  if str 4 <> magic then raise (Bad_image "bad magic");
  let entry = u32 () in
  let nsections = u32 () in
  if nsections < 0 || nsections > 1024 then raise (Bad_image "bad section count");
  let sections =
    List.init nsections (fun _ ->
        let kind = kind_of_code (u8 ()) in
        let name = str (u8 ()) in
        let vaddr = u32 () in
        let len = u32 () in
        if len < 0 then raise (Bad_image "bad section length");
        { name; vaddr; kind; body = Bytes.of_string (str len) })
  in
  { entry; sections }

(* Sections must be page-disjoint (each gets its own mapping flags). *)
let validate img =
  let ranges =
    List.map
      (fun s ->
        let first = s.vaddr lsr 12 in
        let last = (s.vaddr + max 1 (Bytes.length s.body) - 1) lsr 12 in
        (s.name, first, last))
      img.sections
  in
  List.iteri
    (fun i (n1, f1, l1) ->
      List.iteri
        (fun j (n2, f2, l2) ->
          if i < j && f1 <= l2 && f2 <= l1 then
            raise
              (Bad_image (Printf.sprintf "sections %s and %s share a page" n1 n2)))
        ranges)
    ranges
