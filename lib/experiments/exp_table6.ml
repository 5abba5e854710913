(** Table 6: inadvertent VMFUNC instructions found by scanning the
    program corpus, and the same walk's occurrences classified by case,
    the way ERIM reports WRPKRU occurrences ([gadgets]). *)

open Sky_harness

(* Code sizes are divided by this; program counts are kept. *)
let scale = 256

let run ?(scale = scale) () =
  let rows = Sky_rewriter.Corpus.run ~scale in
  let paper_counts =
    [ 0; 0; 0; 0; 0; 0; 0; 0; 1 ] (* one hit, in GIMP-2.8 (Other Apps) *)
  in
  Tbl.make
    ~title:"Table 6: inadvertent VMFUNC instructions found by scanning"
    ~header:
      [ "program group"; "avg code size (KB)"; "scanned (KB, scaled)"; "paper"; "ours" ]
    ~notes:
      [
        Printf.sprintf
          "synthetic corpus, code sizes scaled by 1/%d (program counts kept); \
           the GIMP-2.8 hit sits in the immediate of a longer call \
           instruction, as in SS6.7"
          scale;
      ]
    (List.map2
       (fun (r : Sky_rewriter.Corpus.report_row) paper ->
         [
           r.group;
           Tbl.fmt_int r.avg_code_kb;
           Tbl.fmt_int (r.scanned_bytes / 1024);
           string_of_int paper;
           string_of_int r.vmfunc_count;
         ])
       rows paper_counts)

let gadgets () =
  Tbl.make
    ~title:"Audit: inadvertent VMFUNC occurrences by case (ERIM-style)"
    ~header:[ "program group"; "scanned (KB)"; "C1"; "C2"; "C3"; "total" ]
    ~notes:
      [
        Printf.sprintf
          "synthetic Table 6 corpus, code sizes scaled by 1/%d; C1 = actual \
           VMFUNC instruction, C2 = pattern spans an instruction boundary, \
           C3 = pattern embedded in modrm/sib/disp/imm (the planted GIMP \
           hit is C3/imm)"
          scale;
      ]
    (List.map
       (fun (r : Sky_rewriter.Corpus.report_row) ->
         [
           r.group;
           Tbl.fmt_int (r.scanned_bytes / 1024);
           string_of_int r.c1;
           string_of_int r.c2;
           string_of_int r.c3;
           string_of_int r.vmfunc_count;
         ])
       (Sky_rewriter.Corpus.run ~scale))
