(* The §5 defence, live: scan a binary for inadvertent VMFUNC encodings,
   classify each occurrence (Table 3), rewrite, and prove equivalence by
   executing both versions in the reference interpreter.

   Run with:  dune exec examples/rewriter_demo.exe *)

open Sky_isa
open Sky_rewriter

let hex code off len =
  String.concat " "
    (List.init len (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get code (off + i)))))

let () =
  (* A program whose bytes hide VMFUNC (0F 01 D4) five different ways. *)
  let program =
    [
      Insn.Mov_ri (Reg.Rdi, 0x3000L);
      Insn.Mov_ri (Reg.Rax, 7L);
      Insn.Mov_store (Insn.mem ~base:Reg.Rdi (), Reg.Rax);
      (* C1: an actual vmfunc instruction *)
      Insn.Vmfunc;
      (* C3/ModRM: imul $0xD401, (rdi), rcx encodes ModRM = 0F *)
      Insn.Imul_rri (Reg.Rcx, Insn.M (Insn.mem ~base:Reg.Rdi ()), 0xD401);
      (* C3/SIB *)
      Insn.Lea (Reg.Rbx, Insn.mem ~base:Reg.Rdi ~index:(Reg.Rcx, 1) ~disp:0xD401 ());
      (* C3/displacement *)
      Insn.Add_rm (Reg.Rdx, Insn.mem ~base:Reg.Rdi ~disp:0xD4010F ());
      (* C3/immediate *)
      Insn.Add_ri (Reg.Rax, 0xD4010F);
    ]
  in
  let code = Encode.encode_all program in
  Printf.printf "scanning %d bytes of code...\n\n" (Bytes.length code);
  List.iter
    (fun occ ->
      Printf.printf "  offset %2d: %-12s bytes [%s]\n" occ.Scan.at
        (Scan.case_name occ.Scan.case)
        (hex code occ.Scan.at 3))
    (Scan.scan code);
  let r = Rewrite.rewrite ~code_va:0x2000 code in
  Printf.printf "\nrewrote %d occurrences in %d scan rounds\n" r.Rewrite.patched
    r.Rewrite.iterations;
  Printf.printf "rewrite page: %d bytes of snippets at VA 0x1000\n"
    (Bytes.length r.Rewrite.rewrite_page);
  Printf.printf "patterns left (code + rewrite page): %d\n\n"
    (Scan.count_pattern (Bytes.cat r.Rewrite.code r.Rewrite.rewrite_page));
  (* Execute original vs rewritten. *)
  let flat ~code ~page =
    let buf = Bytes.make (0x2000 + Bytes.length code) '\x00' in
    Bytes.blit page 0 buf Rewrite.rewrite_page_va (Bytes.length page);
    Bytes.blit code 0 buf 0x2000 (Bytes.length code);
    buf
  in
  let run ~code ~page =
    let st = Interp.create () in
    st.Interp.ip <- 0x2000;
    Interp.run st (flat ~code ~page);
    st
  in
  let orig = run ~code ~page:Bytes.empty in
  let rewr = run ~code:r.Rewrite.code ~page:r.Rewrite.rewrite_page in
  Printf.printf "original executed %d vmfunc(s); rewritten executed %d\n"
    (Interp.vmfunc_count orig) (Interp.vmfunc_count rewr);
  List.iter
    (fun reg ->
      let a = Interp.get orig reg and b = Interp.get rewr reg in
      if a <> b then
        Printf.printf "  MISMATCH %s: %Lx vs %Lx\n" (Reg.name reg) a b)
    Reg.all;
  let identical =
    List.for_all (fun rg -> Interp.get orig rg = Interp.get rewr rg) Reg.all
  in
  Printf.printf "all 16 registers identical after rewriting: %b\n" identical;
  (* The demo doubles as a check of the oracle's headline result. *)
  if not identical || Interp.vmfunc_count rewr <> 0 then exit 1
