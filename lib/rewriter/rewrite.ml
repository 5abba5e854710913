open Sky_isa

exception Rewrite_failed of string

type result = {
  code : bytes;
  rewrite_page : bytes;
  patched : int;
  iterations : int;
}

let default_rewrite_page_va = 0x1000
let rewrite_page_va = default_rewrite_page_va
let default_code_va = 0x400000

let in_allowed allowed at =
  List.exists (fun (off, len) -> at >= off && at < off + len) allowed

(* A replacement element: a semantic instruction we can re-encode, or raw
   bytes copied verbatim, or an IP-relative instruction that must be
   re-linked to a fixed absolute target. *)
type reloc_kind = R_jmp | R_call | R_jcc of Insn.cond

type element =
  | E_insn of Insn.t
  | E_bytes of string
  | E_reloc of { kind : reloc_kind; target_va : int }

let encode_element ~at_va = function
  | E_insn i -> (Encode.encode i).Encode.bytes
  | E_bytes s -> s
  | E_reloc { kind; target_va } ->
    (* jmp/call are 5 bytes, jcc rel32 is 6. *)
    let len = match kind with R_jcc _ -> 6 | _ -> 5 in
    let rel = target_va - (at_va + len) in
    let i =
      match kind with
      | R_jmp -> Insn.Jmp_rel rel
      | R_call -> Insn.Call_rel rel
      | R_jcc c -> Insn.Jcc (c, rel)
    in
    (Encode.encode i).Encode.bytes

let encode_elements ~base_va elems =
  let buf = Buffer.create 32 in
  List.iter
    (fun e -> Buffer.add_string buf (encode_element ~at_va:(base_va + Buffer.length buf) e))
    elems;
  Buffer.contents buf

(* Scratch register choice: any register the instruction does not touch.
   RSP is excluded (push/pop juggling), RBP kept free for frame-pointer
   code. *)
let scratch_for insn =
  let used = Insn.regs_used insn in
  let candidates =
    [ Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx; Reg.Rsi; Reg.Rdi; Reg.R8; Reg.R9;
      Reg.R10; Reg.R11 ]
  in
  match List.find_opt (fun r -> not (List.exists (Reg.equal r) used)) candidates with
  | Some r -> r
  | None -> raise (Rewrite_failed "no scratch register available")

let subst_mem_base m scratch = { m with Insn.base = Some scratch }

let with_mem insn f =
  match insn with
  | Insn.Mov_load (d, m) -> Insn.Mov_load (d, f m)
  | Insn.Mov_store (m, s) -> Insn.Mov_store (f m, s)
  | Insn.Add_rm (d, m) -> Insn.Add_rm (d, f m)
  | Insn.Lea (d, m) -> Insn.Lea (d, f m)
  | Insn.Imul_rri (d, Insn.M m, i) -> Insn.Imul_rri (d, Insn.M (f m), i)
  | Insn.Imul_rm (d, Insn.M m) -> Insn.Imul_rm (d, Insn.M (f m))
  | _ -> raise (Rewrite_failed "instruction has no memory operand")

let mem_of insn =
  match insn with
  | Insn.Mov_load (_, m) | Insn.Mov_store (m, _) | Insn.Add_rm (_, m)
  | Insn.Lea (_, m) | Insn.Imul_rri (_, Insn.M m, _) | Insn.Imul_rm (_, Insn.M m) ->
    m
  | _ -> raise (Rewrite_failed "instruction has no memory operand")

(* Candidate adjustment constants for displacement/immediate splitting;
   tried in order until the encoded replacement contains no pattern. *)
let split_candidates = [ 0x11; 0x23; 0x101; 0x1011; 0x3713; 0x111111; 1; 2; 3; 5 ]

let clean_bytes s = Scan.count_pattern (Bytes.of_string s) = 0

let pick_split ~make =
  let rec go = function
    | [] -> raise (Rewrite_failed "no clean split found")
    | k :: rest ->
      let elems = make k in
      if clean_bytes (encode_elements ~base_va:0 elems) then elems else go rest
  in
  go split_candidates

(* Strategy for a register-substitution rewrite (Table 3 rows 2 and 3). *)
let strategy_subst_base insn =
  let m = mem_of insn in
  match m.Insn.base with
  | None -> raise (Rewrite_failed "modrm/sib pattern without base register")
  | Some base ->
    let scratch = scratch_for insn in
    [
      E_insn (Insn.Push scratch);
      E_insn (Insn.Mov_rr (scratch, base));
      E_insn (with_mem insn (fun m -> subst_mem_base m scratch));
      E_insn (Insn.Pop scratch);
    ]

(* Table 3 row 4: precompute part of the displacement. *)
let strategy_disp insn =
  let m = mem_of insn in
  match m.Insn.base with
  | Some base
    when not (List.exists (Reg.equal base) (Insn.regs_written insn)) ->
    pick_split ~make:(fun k ->
        [
          E_insn (Insn.Add_ri (base, k));
          E_insn (with_mem insn (fun m -> { m with Insn.disp = m.Insn.disp - k }));
          E_insn (Insn.Sub_ri (base, k));
        ])
  | _ ->
    (* No base, or the instruction clobbers it: route through scratch. *)
    let scratch = scratch_for insn in
    pick_split ~make:(fun k ->
        let loaded =
          match m.Insn.base with
          | None -> Insn.Mov_ri (scratch, Int64.of_int (m.Insn.disp - k))
          | Some base -> Insn.Lea (scratch, Insn.mem ~base ~disp:(m.Insn.disp - k) ())
        in
        [
          E_insn (Insn.Push scratch);
          E_insn loaded;
          E_insn
            (with_mem insn (fun m ->
                 { (subst_mem_base m scratch) with Insn.disp = k }));
          E_insn (Insn.Pop scratch);
        ])

(* Table 3 row 5: apply the instruction twice with composing immediates;
   jump-likes are re-linked instead (handled by the caller via E_reloc). *)
let strategy_imm insn =
  match insn with
  | Insn.Add_ri (r, imm) ->
    pick_split ~make:(fun k ->
        [ E_insn (Insn.Add_ri (r, imm - k)); E_insn (Insn.Add_ri (r, k)) ])
  | Insn.Sub_ri (r, imm) ->
    pick_split ~make:(fun k ->
        [ E_insn (Insn.Sub_ri (r, imm - k)); E_insn (Insn.Sub_ri (r, k)) ])
  | Insn.Mov_ri (r, imm) ->
    pick_split ~make:(fun k ->
        [
          E_insn (Insn.Mov_ri (r, Int64.sub imm (Int64.of_int k)));
          E_insn (Insn.Add_ri (r, k));
        ])
  | Insn.Imul_rri (d, src, imm) ->
    let scratch = scratch_for insn in
    pick_split ~make:(fun k ->
        [
          E_insn (Insn.Push scratch);
          E_insn (Insn.Mov_ri (scratch, Int64.of_int (imm - k)));
          E_insn (Insn.Add_ri (scratch, k));
          E_insn (Insn.Imul_rm (scratch, src));
          E_insn (Insn.Mov_rr (d, scratch));
          E_insn (Insn.Pop scratch);
        ])
  | Insn.And_ri (r, imm) | Insn.Or_ri (r, imm) | Insn.Cmp_ri (r, imm) ->
    (* Non-additive immediates: stage the constant in a scratch register
       (the split keeps each staged immediate pattern-free), then apply
       the register form LAST so the final flags match the original. *)
    let scratch = scratch_for insn in
    let apply =
      match insn with
      | Insn.And_ri _ -> Insn.And_rr (r, scratch)
      | Insn.Or_ri _ -> Insn.Or_rr (r, scratch)
      | _ -> Insn.Cmp_rr (r, scratch)
    in
    (* push/pop would clobber flags? push/pop do not affect flags; the
       trailing pop is safe. *)
    pick_split ~make:(fun k ->
        [
          E_insn (Insn.Push scratch);
          E_insn (Insn.Mov_ri (scratch, Int64.of_int (imm - k)));
          E_insn (Insn.Add_ri (scratch, k));
          E_insn apply;
          E_insn (Insn.Pop scratch);
        ])
  | _ -> raise (Rewrite_failed "unsupported immediate-bearing instruction")

(* Turn one decoded instruction of the span into replacement elements.
   [next_va] is the VA of the byte after the instruction at its ORIGINAL
   location, used to resolve IP-relative targets. *)
let elements_of_decoded ~code ~code_va (d : Decode.decoded) =
  let next_va = code_va + d.Decode.off + d.Decode.len in
  match d.Decode.insn with
  | Some (Insn.Jmp_rel rel) -> [ E_reloc { kind = R_jmp; target_va = next_va + rel } ]
  | Some (Insn.Call_rel rel) -> [ E_reloc { kind = R_call; target_va = next_va + rel } ]
  | Some (Insn.Jcc (c, rel)) ->
    [ E_reloc { kind = R_jcc c; target_va = next_va + rel } ]
  | Some i -> [ E_insn i ]
  | None -> [ E_bytes (Bytes.sub_string code d.Decode.off d.Decode.len) ]

(* C2: the span's instructions with a NOP wedged between each pair. *)
let c2_elements ~code ~code_va first rest =
  elements_of_decoded ~code ~code_va first
  @ List.concat_map
      (fun d -> E_insn Insn.Nop :: elements_of_decoded ~code ~code_va d)
      rest

(* C3: the replacement for the one instruction whose [field] holds the
   pattern. *)
let c3_elements ~code ~code_va field (d : Decode.decoded) =
  match d.Decode.insn with
  | None -> raise (Rewrite_failed "pattern inside undecodable instruction")
  | Some (Insn.Jmp_rel _) | Some (Insn.Call_rel _) | Some (Insn.Jcc _) ->
    (* Jump-like: moving to the rewrite page re-encodes the offset. *)
    elements_of_decoded ~code ~code_va d
  | Some insn -> (
    match field with
    | Scan.In_modrm | Scan.In_sib -> strategy_subst_base insn
    | Scan.In_disp -> strategy_disp insn
    | Scan.In_imm -> strategy_imm insn
    | Scan.In_opcode ->
      raise (Rewrite_failed "pattern in opcode of non-vmfunc instruction"))

let nop_byte = '\x90'

let patch_in_place code ~off ~len ~bytes_str =
  assert (String.length bytes_str <= len);
  Bytes.blit_string bytes_str 0 code off (String.length bytes_str);
  Bytes.fill code (off + String.length bytes_str) (len - String.length bytes_str) nop_byte

(* Emit [elems] as a snippet in the rewrite page, ending with a jump back
   to [return_va]. Retries with leading NOP padding until the snippet
   bytes are pattern-free (padding shifts IP-relative encodings). *)
let emit_snippet page ~page_va ~return_va elems =
  let rec try_pad pad =
    if pad > 16 then raise (Rewrite_failed "snippet never became clean")
    else begin
      let snippet_off = Buffer.length page in
      let snippet_va = page_va + snippet_off in
      let body =
        encode_elements ~base_va:snippet_va
          (List.init pad (fun _ -> E_insn Insn.Nop)
          @ elems
          @ [ E_reloc { kind = R_jmp; target_va = return_va } ])
      in
      (* The junction with existing page content must stay clean too. *)
      let tail_ctx =
        let n = Buffer.length page in
        let keep = min 2 n in
        Buffer.sub page (n - keep) keep
      in
      if clean_bytes (tail_ctx ^ body) then begin
        Buffer.add_string page body;
        snippet_va
      end
      else try_pad (pad + 1)
    end
  in
  try_pad 0

(* Grow the span [first :: rest] rightwards until it is big enough for a
   5-byte jump, pulling whole following instructions in. Returns the grown
   [rest] and the span's length. *)
let widen_span ~code (first : Decode.decoded) rest =
  let rec grow rev_rest (last : Decode.decoded) =
    let next_off = last.Decode.off + last.Decode.len in
    let span_len = next_off - first.Decode.off in
    if span_len >= 5 then (List.rev rev_rest, span_len)
    else if next_off >= Bytes.length code then
      raise (Rewrite_failed "span too short at end of code")
    else
      let d = Decode.decode_one code next_off in
      grow (d :: rev_rest) d
  in
  match List.rev rest with
  | [] -> grow [] first
  | last :: _ as rev_rest -> grow rev_rest last

(* Replace the span [first :: rest], widened to fit a jump, by [elements]
   of the widened span: in place when they fit and stay clean, else as a
   rewrite-page snippet reached by a jump. *)
let replace_span ~code ~code_va ~page_va ~page first rest elements =
  let rest, span_len = widen_span ~code first rest in
  let span_off = first.Decode.off in
  let elems = elements first rest in
  let in_place = encode_elements ~base_va:(code_va + span_off) elems in
  if String.length in_place <= span_len && clean_bytes in_place then
    patch_in_place code ~off:span_off ~len:span_len ~bytes_str:in_place
  else begin
    let return_va = code_va + span_off + span_len in
    let snippet_va = emit_snippet page ~page_va ~return_va elems in
    let jmp =
      (Encode.encode (Insn.Jmp_rel (snippet_va - (code_va + span_off + 5))))
        .Encode.bytes
    in
    patch_in_place code ~off:span_off ~len:span_len ~bytes_str:jmp
  end

let handle_occurrence ~code ~code_va ~page_va ~page (occ : Scan.occurrence) =
  match occ.Scan.span with
  | [] -> raise (Rewrite_failed "occurrence covers no instruction")
  | first :: rest -> (
    match occ.Scan.case with
    | Scan.C1_vmfunc ->
      (* Three NOPs in place (Table 3 row 1). VMFUNC is exactly 3 bytes
         but a redundant-prefix encoding could be longer; pad whatever the
         instruction occupies. *)
      patch_in_place code ~off:first.Decode.off ~len:first.Decode.len ~bytes_str:""
    | Scan.C2_spanning ->
      replace_span ~code ~code_va ~page_va ~page first rest (c2_elements ~code ~code_va)
    | Scan.C3_embedded field ->
      (* Widening may have appended trailing instructions after a C3;
         rewrite the first instruction, then move the rest verbatim. *)
      replace_span ~code ~code_va ~page_va ~page first rest (fun first rest ->
          c3_elements ~code ~code_va field first
          @ List.concat_map (elements_of_decoded ~code ~code_va) rest))

(* ------------------------------------------------------------------ *)
(* Independent post-verification (ERIM-style scan-and-verify)          *)
(* ------------------------------------------------------------------ *)

(* The fixpoint loop above already re-scans until clean, but the security
   argument should not rest on the rewriting code being correct about its
   own output. [verify] re-checks a result with machinery the rewriting
   path does not use: a page-by-page scan with a carried overlap (the
   shape the per-page auditor sees) and a decode from *every* byte offset
   that catches VMFUNCs reachable through misaligned execution. *)
let verify ?(allowed = []) r =
  let check name buf allowed =
    List.iter
      (fun at ->
        if not (in_allowed allowed at) then
          raise
            (Rewrite_failed
               (Printf.sprintf "post-verify: pattern at %#x in %s" at name)))
      (Scan.find_pattern_paged buf);
    let n = Bytes.length buf in
    for off = 0 to n - 1 do
      let d = Decode.decode_one buf off in
      if d.Decode.insn = Some Insn.Vmfunc then begin
        (* Prefixed encodings put the 0F 01 D4 after the prefixes. *)
        let pat = off + d.Decode.layout.Encode.opcode_off in
        if not (in_allowed allowed pat) then
          raise
            (Rewrite_failed
               (Printf.sprintf
                  "post-verify: vmfunc decodable at offset %#x in %s" off name))
      end
    done
  in
  check "code" r.code allowed;
  check "rewrite page" r.rewrite_page []

let rewrite ?(code_va = default_code_va)
    ?(rewrite_page_va = default_rewrite_page_va) ?(allowed = []) input =
  let page_va = rewrite_page_va in
  let code = Bytes.copy input in
  let page = Buffer.create 256 in
  let patched = ref 0 in
  let rec fix iter =
    if iter > 200 then raise (Rewrite_failed "rewriting did not converge");
    let occs =
      List.filter
        (fun o -> not (in_allowed allowed o.Scan.at))
        (Scan.scan code)
    in
    match occs with
    | [] ->
      if not (clean_bytes (Buffer.contents page)) then
        raise (Rewrite_failed "rewrite page contains pattern")
      else iter
    | occ :: _ ->
      handle_occurrence ~code ~code_va ~page_va ~page occ;
      incr patched;
      fix (iter + 1)
  in
  let iterations = fix 0 in
  let r =
    {
      code;
      rewrite_page = Buffer.to_bytes page;
      patched = !patched;
      iterations;
    }
  in
  (* Mandatory post-pass: never hand back a result the independent
     verifier would reject. *)
  verify ~allowed r;
  r

let clean ?(allowed = []) code =
  List.for_all (fun at -> in_allowed allowed at) (Scan.find_pattern code)
