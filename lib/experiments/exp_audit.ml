(** The `skybench audit` scenarios and the ERIM-style gadget-occurrence
    breakdown.

    [scenarios] boots each kernel personality, registers a client/server/
    dependency topology whose client ships VMFUNC encodings of all three
    cases (C1 actual instruction, C2 spanning an instruction boundary, C3
    embedded in an immediate), exercises direct calls, and then runs the
    whole-machine pass registry ({!Sky_core.Subkernel.audit_passes}),
    returning per-pass results with timing. A fourth scenario routes the
    same topology through the capability mesh and audits with the
    capability closure as Isoflow's ground truth
    ({!Sky_mesh.Mesh.audit_passes}). A healthy build reports zero
    violations everywhere — the CI gate.

    [run] re-scans the Table 6 synthetic corpus and classifies every
    occurrence by case, the way ERIM reports WRPKRU occurrences — the
    EXPERIMENTS.md appendix. *)

open Sky_sim
open Sky_ukernel
open Sky_core
open Sky_harness

let echo ~core:_ msg = msg

(* Client code carrying every rewrite case: a bare VMFUNC (C1), the
   pattern inside a call immediate (C3/imm, the GIMP shape), the pattern
   in a mov immediate (C3/imm), and a byte stream whose instruction
   boundary splits the pattern (C2). *)
let dirty_client_code () =
  let open Sky_isa in
  let aligned =
    Encode.encode_all
      [
        Insn.Nop;
        Insn.Vmfunc;
        Insn.Add_ri (Reg.Rax, 0xD4010F);
        Insn.Mov_ri (Reg.Rbx, 0x00D4010FL);
        Insn.Call_rel 0x00D4010F;
        Insn.Ret;
      ]
  in
  (* C2: add rbx, 0x0F000000 ends in byte 0F; "01 D4" (add rsp, rdx in
     the always-64-bit subset) follows — the pattern spans the boundary. *)
  let c2 =
    Bytes.of_string
      ((Encode.encode (Insn.Add_ri (Reg.Rbx, 0x0F000000))).Encode.bytes
      ^ "\x01\xd4"
      ^ (Encode.encode Insn.Ret).Encode.bytes)
  in
  Bytes.cat aligned c2

let variants =
  [ (Config.Sel4, "sel4"); (Config.Fiasco, "fiasco"); (Config.Zircon, "zircon") ]

let build variant =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let kernel = Kernel.create ~config:(Config.default variant) machine in
  let sb = Subkernel.init kernel in
  let spawn name code =
    let p = Kernel.spawn kernel ~name in
    ignore (Kernel.map_code kernel p code);
    p
  in
  let clean = Sky_isa.Encode.encode_all [ Sky_isa.Insn.Nop; Sky_isa.Insn.Ret ] in
  let client = spawn "client" (dirty_client_code ()) in
  let fs = spawn "fs" clean in
  let disk = spawn "disk" clean in
  let sid_disk = Subkernel.register_server sb disk echo in
  let sid_fs = Subkernel.register_server sb fs ~deps:[ sid_disk ] echo in
  Subkernel.register_client_to_server sb client ~server_id:sid_fs;
  Kernel.context_switch kernel ~core:0 client;
  (* Exercise calls so VMCS EPTP lists and bindings are in their live,
     post-traffic state when audited. *)
  ignore
    (Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid_fs
       (Bytes.make 64 'x'));
  sb

(* The same topology routed through the capability mesh: grants cover
   the dependency closure, so Isoflow's [flow.closure] runs against the
   capability registry rather than the binding registry. *)
let build_mesh () =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let kernel = Kernel.create machine in
  let sb = Subkernel.init kernel in
  let mesh = Sky_mesh.Mesh.create sb in
  let spawn name code =
    let p = Kernel.spawn kernel ~name in
    ignore (Kernel.map_code kernel p code);
    p
  in
  let clean = Sky_isa.Encode.encode_all [ Sky_isa.Insn.Nop; Sky_isa.Insn.Ret ] in
  let client = spawn "client" (dirty_client_code ()) in
  let fs = spawn "fs" clean in
  let disk = spawn "disk" clean in
  let sid_disk = Subkernel.register_server sb disk echo in
  let sid_fs = Subkernel.register_server sb fs ~deps:[ sid_disk ] echo in
  Sky_mesh.Mesh.register mesh ~core:0 ~uri:"blk://" ~server_id:sid_disk;
  Sky_mesh.Mesh.register mesh ~core:0 ~uri:"fs://" ~server_id:sid_fs;
  Sky_mesh.Mesh.connect mesh client;
  ignore (Sky_mesh.Mesh.grant mesh ~core:0 ~client "fs://");
  Kernel.context_switch kernel ~core:0 client;
  ignore (Sky_mesh.Mesh.call_exn mesh ~core:0 ~client "fs://" (Bytes.make 64 'x'));
  mesh

let scenarios () =
  List.map
    (fun (variant, name) -> (name, Subkernel.audit_passes (build variant)))
    variants
  @ [ ("mesh", Sky_mesh.Mesh.audit_passes (build_mesh ())) ]

(* ------------------------------------------------------------------ *)
(* ERIM-style case breakdown over the corpus                           *)
(* ------------------------------------------------------------------ *)

let case_key occ =
  match occ.Sky_rewriter.Scan.case with
  | Sky_rewriter.Scan.C1_vmfunc -> `C1
  | Sky_rewriter.Scan.C2_spanning -> `C2
  | Sky_rewriter.Scan.C3_embedded _ -> `C3

let run () =
  let scale = 256 and seed = 0x5B in
  let rows =
    List.map
      (fun (g : Sky_rewriter.Corpus.group) ->
        let rng =
          Rng.create ~seed:(seed lxor Hashtbl.hash g.Sky_rewriter.Corpus.name)
        in
        let size =
          max 256 (g.Sky_rewriter.Corpus.avg_code_kb * 1024 / scale)
        in
        let scanned = ref 0 in
        let c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
        for app = 0 to g.Sky_rewriter.Corpus.apps - 1 do
          let plant =
            g.Sky_rewriter.Corpus.plant_gimp
            && app = g.Sky_rewriter.Corpus.apps / 2
          in
          let prog =
            Sky_rewriter.Corpus.generate_program rng ~size_bytes:size ~plant
          in
          scanned := !scanned + Bytes.length prog;
          List.iter
            (fun occ ->
              match case_key occ with
              | `C1 -> incr c1
              | `C2 -> incr c2
              | `C3 -> incr c3)
            (Sky_rewriter.Scan.scan prog)
        done;
        [
          g.Sky_rewriter.Corpus.name;
          Tbl.fmt_int (!scanned / 1024);
          string_of_int !c1;
          string_of_int !c2;
          string_of_int !c3;
          string_of_int (!c1 + !c2 + !c3);
        ])
      Sky_rewriter.Corpus.table6_groups
  in
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
    rows
