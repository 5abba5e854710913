(** Synthetic binary corpus for the Table 6 experiment.

    The paper scans SPEC CPU 2006, PARSEC 3.0, several servers, vmlinux,
    2,934 kernel modules and 2,605 other Linux programs, finding exactly
    one inadvertent VMFUNC (in GIMP 2.8, inside the immediate of a longer
    call instruction). We do not have those proprietary binaries, so we
    generate deterministic instruction streams with realistic operand
    distributions (small immediates and displacements dominate), of the
    same program counts and — scaled by [scale] — the same code sizes,
    and plant the GIMP call. The scanner exercised is the real one. *)

open Sky_isa

type group = {
  name : string;
  apps : int;
  avg_code_kb : int;  (** paper's average code size, in KiB *)
  plant_gimp : bool;
}

(* Table 6 of the paper. *)
let table6_groups =
  [
    { name = "SPECCPU 2006 (31 Apps)"; apps = 31; avg_code_kb = 424; plant_gimp = false };
    { name = "PARSEC 3.0 (45 Apps)"; apps = 45; avg_code_kb = 842; plant_gimp = false };
    { name = "Nginx v1.6.2"; apps = 1; avg_code_kb = 979; plant_gimp = false };
    { name = "Apache v2.4.10"; apps = 1; avg_code_kb = 666; plant_gimp = false };
    { name = "Memcached v1.4.21"; apps = 1; avg_code_kb = 121; plant_gimp = false };
    { name = "Redis v2.8.17"; apps = 1; avg_code_kb = 729; plant_gimp = false };
    { name = "Vmlinux v4.14.29"; apps = 1; avg_code_kb = 10498; plant_gimp = false };
    { name = "Linux Kernel Modules v4.14.29 (2,934 Modules)"; apps = 2934;
      avg_code_kb = 15; plant_gimp = false };
    { name = "Other Apps (2,605 Apps)"; apps = 2605; avg_code_kb = 216;
      plant_gimp = true };
  ]

let regs =
  [| Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx; Reg.Rsi; Reg.Rdi; Reg.R8; Reg.R9;
     Reg.R10; Reg.R11; Reg.R12; Reg.R14; Reg.R15 |]

let random_reg rng = regs.(Sky_sim.Rng.int rng (Array.length regs))

(* Realistic immediate/displacement distribution: overwhelmingly small
   constants and modest structure offsets, occasionally page-sized. *)
let random_const rng =
  match Sky_sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> Sky_sim.Rng.int rng 16
  | 4 | 5 | 6 -> Sky_sim.Rng.int rng 256
  | 7 | 8 -> Sky_sim.Rng.int rng 4096
  | _ -> Sky_sim.Rng.int rng 0x100000

let random_mem rng =
  let base = Some (random_reg rng) in
  let index =
    if Sky_sim.Rng.int rng 4 = 0 then
      Some (random_reg rng, [| 1; 2; 4; 8 |].(Sky_sim.Rng.int rng 4))
    else None
  in
  { Insn.base; index; disp = random_const rng }

let random_insn rng =
  match Sky_sim.Rng.int rng 28 with
  | 0 | 1 -> Insn.Push (random_reg rng)
  | 2 | 3 -> Insn.Pop (random_reg rng)
  | 4 | 5 -> Insn.Mov_rr (random_reg rng, random_reg rng)
  | 6 | 7 -> Insn.Mov_ri (random_reg rng, Int64.of_int (random_const rng))
  | 8 | 9 -> Insn.Mov_load (random_reg rng, random_mem rng)
  | 10 -> Insn.Mov_store (random_mem rng, random_reg rng)
  | 11 -> Insn.Add_rr (random_reg rng, random_reg rng)
  | 12 -> Insn.Add_ri (random_reg rng, random_const rng)
  | 13 -> Insn.Sub_ri (random_reg rng, random_const rng)
  | 14 -> Insn.Xor_rr (random_reg rng, random_reg rng)
  | 15 -> Insn.Lea (random_reg rng, random_mem rng)
  | 16 -> Insn.Add_rm (random_reg rng, random_mem rng)
  | 17 -> Insn.Call_rel (random_const rng)
  | 18 -> Insn.Ret
  | 19 -> Insn.Nop
  | 20 -> Insn.And_ri (random_reg rng, random_const rng)
  | 21 -> Insn.Or_rr (random_reg rng, random_reg rng)
  | 22 -> Insn.Cmp_ri (random_reg rng, random_const rng)
  | 23 -> Insn.Test_rr (random_reg rng, random_reg rng)
  | 24 -> Insn.Shl_ri (random_reg rng, Sky_sim.Rng.int rng 32)
  | 25 -> Insn.Inc (random_reg rng)
  | 26 ->
    Insn.Jcc
      ( [| Insn.E; Insn.Ne; Insn.L; Insn.G |].(Sky_sim.Rng.int rng 4),
        random_const rng )
  | _ -> Insn.Dec (random_reg rng)

(* The planted GIMP occurrence: a call whose 32-bit offset immediate
   contains 0F 01 D4 — "the inadvertent VMFUNC is contained in the
   immediate region of a longer call instruction" (§6.7). *)
let gimp_call = Insn.Call_rel 0x00D4010F

let generate_program rng ~size_bytes ~plant =
  let buf = Buffer.create size_bytes in
  let plant_at = if plant then size_bytes / 2 else max_int in
  let planted = ref false in
  while Buffer.length buf < size_bytes do
    if (not !planted) && Buffer.length buf >= plant_at then begin
      Buffer.add_string buf (Encode.encode gimp_call).Encode.bytes;
      planted := true
    end
    else
      Buffer.add_string buf (Encode.encode (random_insn rng)).Encode.bytes
  done;
  Buffer.to_bytes buf

type report_row = {
  group : string;
  apps : int;
  avg_code_kb : int;
  scanned_bytes : int;
  vmfunc_count : int;
  c1 : int;  (** occurrences that are a VMFUNC instruction *)
  c2 : int;  (** ... that span an instruction boundary *)
  c3 : int;  (** ... embedded in one longer instruction *)
}

let seed = 0x5B

(* [scale] divides every program's code size (the program *count* is kept)
   so the experiment stays laptop-sized; scale=1 reproduces the paper's
   full volume. Every occurrence {!Scan.find_pattern} finds is classified
   once by {!Scan.scan}. *)
let run ~scale =
  List.map
    (fun g ->
      let rng = Sky_sim.Rng.create ~seed:(seed lxor Hashtbl.hash g.name) in
      let size = max 256 (g.avg_code_kb * 1024 / scale) in
      let scanned = ref 0 in
      let c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
      for app = 0 to g.apps - 1 do
        let plant = g.plant_gimp && app = g.apps / 2 in
        let prog = generate_program rng ~size_bytes:size ~plant in
        scanned := !scanned + Bytes.length prog;
        List.iter
          (fun occ ->
            incr
              (match occ.Scan.case with
              | Scan.C1_vmfunc -> c1
              | Scan.C2_spanning -> c2
              | Scan.C3_embedded _ -> c3))
          (Scan.scan prog)
      done;
      {
        group = g.name;
        apps = g.apps;
        avg_code_kb = g.avg_code_kb;
        scanned_bytes = !scanned;
        vmfunc_count = !c1 + !c2 + !c3;
        c1 = !c1;
        c2 = !c2;
        c3 = !c3;
      })
    table6_groups
