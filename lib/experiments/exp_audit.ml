(** The whole-machine security audit ([skybench run audit]).

    Every scenario boots a kernel personality and declares one client →
    fs → disk service graph ({!Sky_mesh.Service_graph}) whose client
    ships VMFUNC encodings of all three cases (C1 actual instruction, C2
    spanning an instruction boundary, C3 embedded in an immediate),
    makes one call, and is audited by the one driver
    ({!Sky_core.Subkernel.audit_passes}). The [sel4], [fiasco] and
    [zircon] scenarios call by flat server id; [mesh] routes the same
    graph through the capability mesh, so the [mesh] pass runs and
    Isoflow's ground truth is the capability closure
    ({!Sky_mesh.Mesh.audit_passes}). A healthy build reports zero
    violations everywhere: the [clean] check. *)

open Sky_sim
open Sky_ukernel
open Sky_core
open Sky_harness
module Mesh = Sky_mesh.Mesh
module Graph = Sky_mesh.Service_graph
module Audit = Sky_analysis.Audit
module Report = Sky_analysis.Report

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

type scenario = { name : string; sb : Subkernel.t; mesh : Mesh.t option }

(* The client → fs → disk graph on a fresh machine, routed through the
   capability mesh when [meshed]. The call leaves the VMCS EPTP lists
   and bindings in their live, post-traffic state when audited. *)
let build (name, variant, meshed) =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let kernel = Kernel.create ~config:(Config.default variant) machine in
  let sb = Subkernel.init kernel in
  let route = if meshed then Graph.Mesh (Mesh.create sb) else Graph.Flat in
  let g = Graph.create kernel (Graph.Skybridge (sb, route)) in
  let spawn name code =
    let p = Kernel.spawn kernel ~name in
    ignore (Kernel.map_code kernel p code);
    p
  in
  let clean = Sky_isa.Encode.encode_all [ Sky_isa.Insn.Nop; Sky_isa.Insn.Ret ] in
  let client = spawn "client" (dirty_client_code ()) in
  let fs = spawn "fs" clean in
  let disk = Graph.serve g (spawn "disk" clean) echo in
  let fs = Graph.serve g ~deps:[ disk ] fs echo in
  Graph.name g ~core:0 ~uri:"blk://" disk;
  Graph.name g ~core:0 ~uri:"fs://" fs;
  let call = Graph.edge g ~client fs in
  Kernel.context_switch kernel ~core:0 client;
  ignore (call ~core:0 (Bytes.make 64 'x'));
  { name; sb; mesh = Graph.mesh g }

let scenarios () =
  List.map build
    [
      ("sel4", Config.Sel4, false);
      ("fiasco", Config.Fiasco, false);
      ("zircon", Config.Zircon, false);
      ("mesh", Config.Sel4, true);
    ]

let audit s =
  ( s.name,
    match s.mesh with
    | Some m -> Mesh.audit_passes m
    | None -> Subkernel.audit_passes s.sb )

let count (pr : Audit.pass_result) = List.length pr.pr_violations

(* [audited] pairs each scenario's name with its pass results. *)
let outcome audited =
  let named =
    List.concat_map
      (fun (name, prs) ->
        List.map
          (fun v -> name ^ ": " ^ Report.to_string v)
          (Audit.violations prs))
      audited
  in
  let table =
    Tbl.make ~title:"Audit: whole-machine security invariants per scenario"
      ~header:(("scenario" :: Audit.pass_names) @ [ "total" ])
      ~notes:
        (if named <> [] then named
         else
           [
             "violations per pass; every client ships C1/C2/C3 VMFUNC \
              encodings, so a clean gadget pass proves the rewriter and \
              the registration gate";
           ])
      (List.map
         (fun (name, prs) ->
           (name :: List.map (fun pr -> string_of_int (count pr)) prs)
           @ [ string_of_int (List.fold_left (fun a pr -> a + count pr) 0 prs) ])
         audited)
  in
  let json =
    Sky_trace.Json.(
      Obj
        [
          ("clean", Bool (named = []));
          ( "scenarios",
            List
              (List.map
                 (fun (name, prs) ->
                   Obj
                     [
                       ("scenario", String name);
                       ( "passes",
                         List
                           (List.map
                              (fun (pr : Audit.pass_result) ->
                                Obj
                                  [
                                    ("pass", String pr.pr_name);
                                    ( "violations",
                                      List (List.map Report.to_json pr.pr_violations) );
                                  ])
                              prs) );
                     ])
                 audited) );
        ])
  in
  (* Flat host facts, one string per scenario: CI strips the artifact's
     "host" object up to its first closing brace. *)
  let host =
    List.map
      (fun (name, prs) ->
        ( name ^ "_pass_ms",
          Sky_trace.Json.String
            (String.concat " "
               (List.map
                  (fun (pr : Audit.pass_result) ->
                    Printf.sprintf "%s:%.2f" pr.pr_name pr.pr_ms)
                  prs)) ))
      audited
  in
  Outcome.make ~host ~checks:[ ("clean", named = []) ] table json

let run (_ : Budget.t) = outcome (List.map audit (scenarios ()))
