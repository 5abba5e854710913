(** Whole-image VMFUNC gadget auditor (§3.3, §5; ERIM-style verification).

    The rewriter eliminates [0F 01 D4] from code pages; this module
    independently {e proves} the result, without sharing the rewriter's
    fixpoint logic, using three overlapping detectors:

    - a raw byte scan, page by page with a carried 2-byte overlap, so the
      pattern cannot hide across a page boundary ([gadget.vmfunc-pattern]);
    - a self-repairing linear sweep that decodes from {e every byte
      offset} of the image, catching VMFUNCs reachable through misaligned
      or overlapping instruction encodings the aligned decoder never sees
      ([gadget.misaligned-vmfunc]);
    - recursive descent from the image's entry points, following
      fall-through and branch targets ([gadget.reachable-vmfunc]).

    Bytes the decoder has no semantics for are reported as unverifiable
    ([gadget.unverifiable]) rather than silently trusted. *)

open Sky_isa

type image = {
  name : string;
  va : int;  (** base virtual address (reports offset image-relative) *)
  bytes : bytes;
  allowed : (int * int) list;
      (** [(offset, length)] ranges where VMFUNC is legal — the
          trampoline's two crossings, empty for ordinary code *)
  entries : int list;  (** entry offsets for recursive descent *)
}

let image ?(va = 0) ?(allowed = []) ?(entries = [ 0 ]) ~name bytes =
  { name; va; bytes; allowed; entries }

(* Which mechanism instruction the audit hunts for. VMFUNC for the
   EPTP-switching backend; WRPKRU for the MPK backend, where an
   attacker-reachable [0F 01 EF] lets a compromised domain grant itself
   every protection key — ERIM's binary-inspection requirement. *)
type rule = { r_insn : Insn.t; r_pattern : bytes; r_tag : string }

let vmfunc_rule =
  { r_insn = Insn.Vmfunc; r_pattern = Sky_rewriter.Scan.vmfunc_bytes;
    r_tag = "vmfunc" }

let wrpkru_rule =
  { r_insn = Insn.Wrpkru; r_pattern = Sky_rewriter.Scan.wrpkru_bytes;
    r_tag = "wrpkru" }

let in_allowed allowed at =
  List.exists (fun (off, len) -> at >= off && at < off + len) allowed

(* Offset of the raw pattern bytes inside a decoded occurrence (prefixed
   encodings put them after the prefixes/REX). *)
let pattern_off (d : Decode.decoded) = d.Decode.off + d.Decode.layout.Encode.opcode_off

(* Every offset where decoding yields the mechanism instruction — the
   misaligned-execution view of the image. *)
let sweep_every_offset ~rule code =
  let n = Bytes.length code in
  let hits = ref [] in
  for off = n - 1 downto 0 do
    let d = Decode.decode_one code off in
    if d.Decode.insn = Some rule.r_insn then hits := d :: !hits
  done;
  !hits

(* Aligned instruction-start offsets, for classifying a sweep hit as
   misaligned. *)
let aligned_starts code =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (d : Decode.decoded) -> Hashtbl.replace tbl d.Decode.off ())
    (Decode.decode_all code);
  tbl

(* Recursive descent from the entry points: follow fall-through, branch
   and call targets inside the image; stop at RET, out-of-image targets
   and undecodable bytes. *)
let reachable_vmfuncs ?(rule = vmfunc_rule) code ~entries =
  let n = Bytes.length code in
  let visited = Hashtbl.create 256 in
  let hits = ref [] in
  let rec go off =
    if off >= 0 && off < n && not (Hashtbl.mem visited off) then begin
      Hashtbl.replace visited off ();
      let d = Decode.decode_one code off in
      let next = off + d.Decode.len in
      match d.Decode.insn with
      | None -> ()  (* unverifiable bytes are reported separately *)
      | Some i when i = rule.r_insn ->
        hits := d :: !hits;
        go next
      | Some Insn.Ret -> ()
      | Some (Insn.Jmp_rel rel) -> go (next + rel)
      | Some (Insn.Jcc (_, rel)) ->
        go (next + rel);
        go next
      | Some (Insn.Call_rel rel) ->
        go (next + rel);
        go next
      | Some _ -> go next
    end
  in
  List.iter go entries;
  List.sort (fun a b -> compare a.Decode.off b.Decode.off) !hits

let hex_of_pattern p =
  String.concat " "
    (List.map (Printf.sprintf "%02X")
       (List.init (Bytes.length p) (fun i -> Char.code (Bytes.get p i))))

let audit_rule ~rule img =
  let vs = ref [] in
  let add ?addr invariant detail =
    vs := Report.v ?addr ~invariant ~image:img.name detail :: !vs
  in
  (* 1. Raw pattern scan, paged with boundary carry. *)
  List.iter
    (fun at ->
      if not (in_allowed img.allowed at) then
        add ~addr:at (Printf.sprintf "gadget.%s-pattern" rule.r_tag)
          (Printf.sprintf "%s at va %#x" (hex_of_pattern rule.r_pattern)
             (img.va + at)))
    (Sky_rewriter.Scan.find_pattern_paged ~pattern:rule.r_pattern img.bytes);
  (* 2. Every-offset self-repairing sweep. *)
  let aligned = aligned_starts img.bytes in
  List.iter
    (fun d ->
      let pat = pattern_off d in
      if not (in_allowed img.allowed pat) then
        if not (Hashtbl.mem aligned d.Decode.off) then
          add ~addr:d.Decode.off
            (Printf.sprintf "gadget.misaligned-%s" rule.r_tag)
            (Printf.sprintf
               "%s decodes at misaligned offset (va %#x, pattern at %#x)"
               rule.r_tag (img.va + d.Decode.off) (img.va + pat)))
    (sweep_every_offset ~rule img.bytes);
  (* 3. Recursive descent from the entry points. *)
  List.iter
    (fun d ->
      let pat = pattern_off d in
      if not (in_allowed img.allowed pat) then
        add ~addr:d.Decode.off
          (Printf.sprintf "gadget.reachable-%s" rule.r_tag)
          (Printf.sprintf "%s reachable from entry (va %#x)" rule.r_tag
             (img.va + d.Decode.off)))
    (reachable_vmfuncs ~rule img.bytes ~entries:img.entries);
  (* 4. Undecodable regions are unverifiable, not trusted. Severity Warn:
     registration still refuses them, but a whole-machine sweep ranks
     them below proven gadget findings. *)
  List.iter
    (fun (off, len) ->
      vs :=
        Report.v ~severity:Report.Warn ~addr:off
          ~invariant:"gadget.unverifiable" ~image:img.name
          (Printf.sprintf "%d undecodable byte%s at va %#x" len
             (if len = 1 then "" else "s")
             (img.va + off))
        :: !vs)
    (Decode.unknown_spans img.bytes);
  Report.sort !vs

let audit img = audit_rule ~rule:vmfunc_rule img

(* The ERIM-style binary scan of the MPK backend: prove a domain's code
   carries no attacker-reachable WRPKRU outside the call gate. *)
let audit_wrpkru img = audit_rule ~rule:wrpkru_rule img
