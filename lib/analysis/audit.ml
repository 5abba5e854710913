(** The unified audit-pass registry.

    Every auditor is a named pass over one {!input} record, so every
    whole-machine sweep (the [audit] experiment, the chaos/mesh gates,
    {!Sky_core.Subkernel.audit}) runs them from a single driver,
    {!Sky_core.Subkernel.audit_passes}, with per-pass timing and one
    report schema. The inputs are plain data (bytes, roots, VMCSes, pid
    pairs) rather than Subkernel values so the library stays below
    [sky_core] in the dependency order; the driver assembles the inputs
    from a live machine.

    Passes, in registry order:

    - [gadget] — whole-image VMFUNC scan ({!Gadget})
    - [wrpkru] — whole-image WRPKRU scan, the MPK backend's ERIM-style
      binary inspection ({!Gadget.audit_wrpkru})
    - [trampoline] — abstract interpretation of the live trampoline
      bytes ({!Tramp_check}), per isolation-backend flavor
    - [entryfilter] — the filtered-syscall backend's grant table: every
      granted entry VA must fall inside a blessed code range
    - [ept] — EPT / guest-PT shape: W^X, execute-only trampoline, EPTP
      slots ({!Ept_check})
    - [mesh] — service-mesh authority: bindings vs capabilities, URI
      liveness ({!Mesh_check})
    - [isoflow] — whole-machine cross-domain reachability over the
      composed PT∘EPT sharing graph ({!Isoflow}) *)

type flavor = [ `Vmfunc | `Mpk | `Syscall ]

type entry_filter = {
  ef_entries : (int * int * int) list;
      (** (client pid, server id, granted entry VA) *)
  ef_blessed : (int * int) list;
      (** (va, len) code ranges a grant may legally point into *)
}

type input = {
  images : Gadget.image list;
  wrpkru_images : Gadget.image list;
      (** images the MPK backend's WRPKRU scan must prove clean *)
  machine : Ept_check.input;
  trampolines : (string * bytes * flavor) list;
      (** trampoline page bytes as read from the shared physical frame,
          with the isolation flavor governing which gate rules apply *)
  entry_filter : entry_filter option;
  mesh : Mesh_check.input option;
  isoflow : Isoflow.input;
}

type pass = {
  p_name : string;
  p_run : input -> Report.violation list;
}

let check_entry_filter ef =
  let blessed va =
    List.exists (fun (base, len) -> va >= base && va < base + len) ef.ef_blessed
  in
  List.filter_map
    (fun (pid, server, entry) ->
      if blessed entry then None
      else
        Some
          (Report.v ~addr:entry ~invariant:"entryfilter.unblessed-entry"
             ~image:(Printf.sprintf "pid%d" pid)
             (Printf.sprintf
                "grant (pid %d -> server %d) points outside every blessed \
                 code range"
                pid server)))
    ef.ef_entries

let passes =
  [
    { p_name = "gadget";
      p_run = (fun inp -> List.concat_map Gadget.audit inp.images) };
    { p_name = "wrpkru";
      p_run = (fun inp -> List.concat_map Gadget.audit_wrpkru inp.wrpkru_images) };
    { p_name = "trampoline";
      p_run =
        (fun inp ->
          List.concat_map
            (fun (image, code, flavor) -> Tramp_check.check ~image ~flavor code)
            inp.trampolines) };
    { p_name = "entryfilter";
      p_run =
        (fun inp ->
          match inp.entry_filter with
          | None -> []
          | Some ef -> check_entry_filter ef) };
    { p_name = "ept"; p_run = (fun inp -> Ept_check.check inp.machine) };
    { p_name = "mesh";
      p_run =
        (fun inp ->
          match inp.mesh with None -> [] | Some m -> Mesh_check.check m) };
    { p_name = "isoflow"; p_run = (fun inp -> Isoflow.check inp.isoflow) };
  ]

let pass_names = List.map (fun p -> p.p_name) passes

type pass_result = {
  pr_name : string;
  pr_violations : Report.violation list;
  pr_ms : float;  (** host milliseconds — diagnostic, not deterministic *)
}

let run_passes inp =
  List.map
    (fun p ->
      let t0 = Sys.time () in
      let vs = Report.sort (p.p_run inp) in
      { pr_name = p.p_name;
        pr_violations = vs;
        pr_ms = (Sys.time () -. t0) *. 1000. })
    passes

let violations prs = Report.sort (List.concat_map (fun pr -> pr.pr_violations) prs)

let ok vs = vs = []
