open Sky_isa

type field = In_modrm | In_sib | In_disp | In_imm | In_opcode

type case = C1_vmfunc | C2_spanning | C3_embedded of field

type occurrence = { at : int; case : case; span : Decode.decoded list }

(* The two privileged-mechanism encodings the audits care about: VMFUNC
   [0F 01 D4] and WRPKRU [0F 01 EF]. Same length, same scan machinery. *)
let vmfunc_bytes = Bytes.of_string "\x0f\x01\xd4"
let wrpkru_bytes = Bytes.of_string "\x0f\x01\xef"

let find_bytes ~pattern code =
  let p = Bytes.length pattern in
  let n = Bytes.length code in
  let matches i =
    let rec eq j = j >= p || (Bytes.get code (i + j) = Bytes.get pattern j && eq (j + 1)) in
    eq 0
  in
  let rec go i acc =
    if i + p > n then List.rev acc
    else if matches i then go (i + 1) (i :: acc)
    else go (i + 1) acc
  in
  if p = 0 then [] else go 0 []

let find_pattern code = find_bytes ~pattern:vmfunc_bytes code
let find_wrpkru code = find_bytes ~pattern:wrpkru_bytes code
let count_pattern code = List.length (find_pattern code)

(* Chunked scanning for per-page audits. A pattern split across two
   chunks is invisible to [find_bytes] run on each chunk alone, so we
   carry the last [len-1] bytes of each chunk into the scan of the next
   one. [chunks] are [(global_offset, bytes)] pieces in increasing offset
   order; a gap between chunks resets the carry (the pattern cannot span
   unscanned bytes). Returns global offsets of every occurrence. *)
let find_pattern_chunked ?(pattern = vmfunc_bytes) chunks =
  let overlap = max 0 (Bytes.length pattern - 1) in
  let hits = ref [] in
  let carry = ref Bytes.empty in
  let carry_off = ref 0 in
  List.iter
    (fun (off, chunk) ->
      let contiguous =
        Bytes.length !carry > 0 && !carry_off + Bytes.length !carry = off
      in
      let joined, joined_off =
        if contiguous then (Bytes.cat !carry chunk, !carry_off)
        else (chunk, off)
      in
      (* Hits entirely inside the carry were already reported by the
         previous iteration (the carry is shorter than the pattern, so
         any hit here uses at least one byte of the new chunk). *)
      List.iter (fun at -> hits := (joined_off + at) :: !hits)
        (find_bytes ~pattern joined);
      let keep = min overlap (Bytes.length joined) in
      carry := Bytes.sub joined (Bytes.length joined - keep) keep;
      carry_off := joined_off + Bytes.length joined - keep)
    chunks;
  List.sort_uniq compare !hits

(* [find_bytes] over [code] presented as [page_size]-sized pages — the
   shape a per-page audit sees. Equivalent to scanning the whole buffer
   contiguously thanks to the carried overlap. *)
let find_pattern_paged ?(pattern = vmfunc_bytes) code =
  let page_size = 4096 in
  let n = Bytes.length code in
  let rec pages off acc =
    if off >= n then List.rev acc
    else
      let len = min page_size (n - off) in
      pages (off + page_size) ((off, Bytes.sub code off len) :: acc)
  in
  find_pattern_chunked ~pattern (pages 0 [])

(* Which encoding field does byte [rel] (relative to the instruction
   start) belong to? *)
let field_of (l : Encode.layout) rel =
  let in_span off len = match off with Some o -> rel >= o && rel < o + len | None -> false in
  if in_span l.Encode.modrm_off 1 then In_modrm
  else if in_span l.Encode.sib_off 1 then In_sib
  else if in_span l.Encode.disp_off l.Encode.disp_len then In_disp
  else if in_span l.Encode.imm_off l.Encode.imm_len then In_imm
  else In_opcode

let scan code =
  let plen = Bytes.length vmfunc_bytes in
  let hits = find_pattern code in
  if hits = [] then []
  else begin
    let insns = Array.of_list (Decode.decode_all code) in
    (* Map a byte offset to the index of the covering instruction. *)
    let covering at =
      let rec bsearch lo hi =
        if lo >= hi then lo - 1
        else
          let mid = (lo + hi) / 2 in
          if insns.(mid).Decode.off <= at then bsearch (mid + 1) hi
          else bsearch lo mid
      in
      bsearch 0 (Array.length insns)
    in
    List.map
      (fun at ->
        let i = covering at in
        let d = insns.(i) in
        let ends = d.Decode.off + d.Decode.len in
        if at + plen > ends then begin
          (* Spans into following instruction(s). *)
          let rec collect j acc =
            if j >= Array.length insns then List.rev acc
            else
              let dj = insns.(j) in
              if dj.Decode.off < at + plen then collect (j + 1) (dj :: acc)
              else List.rev acc
          in
          { at; case = C2_spanning; span = collect i [] }
        end
        else if d.Decode.insn = Some Insn.Vmfunc then
          { at; case = C1_vmfunc; span = [ d ] }
        else
          {
            at;
            case = C3_embedded (field_of d.Decode.layout (at - d.Decode.off));
            span = [ d ];
          })
      hits
  end

let field_name = function
  | In_modrm -> "modrm"
  | In_sib -> "sib"
  | In_disp -> "disp"
  | In_imm -> "imm"
  | In_opcode -> "opcode"

let case_name = function
  | C1_vmfunc -> "C1(vmfunc)"
  | C2_spanning -> "C2(spanning)"
  | C3_embedded f -> Printf.sprintf "C3(%s)" (field_name f)
