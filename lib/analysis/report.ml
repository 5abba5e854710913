(** Structured violation reports for the static security auditor.

    Every check in {!Gadget}, {!Ept_check}, {!Tramp_check}, {!Mesh_check}
    and {!Isoflow} names the invariant it enforces with a stable dotted
    identifier (the mutation tests and the CI gate match on these names):

    - [gadget.*] — VMFUNC encodings outside the trampoline (§3.3, §5)
    - [ept.*] — EPT shape: W^X, execute-only trampoline, EPTP slots
      (§4.1, §4.3)
    - [pt.*] — guest page-table W^X and trampoline protection (§9)
    - [trampoline.*] — abstract-interpretation facts about the
      trampoline code itself (§4.4)
    - [mesh.*] — service-mesh authority: no binding outlives its
      capability, no URI resolves to a dead server
    - [flow.*] — whole-machine cross-domain reachability (Isoflow):
      least-privilege over the composed PT∘EPT sharing graph

    Each violation carries a {!severity}: [Error] findings are the CI
    gate (any one fails the audit); [Warn] findings are advisory
    (today only [gadget.unverifiable] on images the decoder has no
    semantics for — registration still refuses them, but a whole-machine
    sweep reports them below the hard failures). *)

type severity = Error | Warn

type violation = {
  invariant : string;  (** stable dotted name, e.g. ["ept.wx"] *)
  image : string;  (** process / EPT / page-table the fault is in *)
  addr : int option;  (** byte offset, VA or GPA, as fits the invariant *)
  detail : string;
  severity : severity;
}

let v ?(severity = Error) ?addr ~invariant ~image detail =
  { invariant; image; addr; detail; severity }

let severity_name = function Error -> "error" | Warn -> "warn"

let to_string r =
  Printf.sprintf "[%s%s] %s%s: %s"
    (match r.severity with Error -> "" | Warn -> "warn ")
    r.invariant r.image
    (match r.addr with Some a -> Printf.sprintf " @ %#x" a | None -> "")
    r.detail

let has ~invariant vs = List.exists (fun r -> r.invariant = invariant) vs

let severity_rank = function Error -> 0 | Warn -> 1

(* Deterministic report order regardless of hash-table iteration order in
   the callers: severity first (errors above warnings), then invariant
   name, then location. *)
let sort vs =
  List.sort_uniq
    (fun a b ->
      compare
        (severity_rank a.severity, a.invariant, a.image, a.addr, a.detail)
        (severity_rank b.severity, b.invariant, b.image, b.addr, b.detail))
    vs

let to_json r =
  Sky_trace.Json.(
    Obj
      [
        ("invariant", String r.invariant);
        ("severity", String (severity_name r.severity));
        ("image", String r.image);
        ("addr", match r.addr with Some a -> Int a | None -> Null);
        ("detail", String r.detail);
      ])
