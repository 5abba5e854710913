(** A fixed host-speed reference.

    A shared host's speed drifts by tens of percent over minutes, which
    would swamp any regression bound. Each measured round is bracketed
    by this loop — dependent random reads over an 8 MiB table, hashing,
    and allocation that dies young, the simulator's own mix — and host
    times are scaled by how long the loop took next to them, to what
    they would be on a host where the loop takes [nominal_ns]. The table lives outside the OCaml heap and the
    loop retains nothing, so the heap the simulator's GC manages is
    unchanged; the resident set grows by the table's 8 MiB. The loop is
    part of the benchmark, never of the library, so a change to the
    simulator cannot move it. *)

let mask = (1 lsl 20) - 1

(* Outside the OCaml heap, so the GC's pacing never sees it; built once. *)
let table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (mask + 1) in
     for i = 0 to mask do
       t.{i} <- (i * 7919) land mask
     done;
     t)

let pass t =
  let x = ref 1 and acc = ref 0 in
  for i = 0 to 200_000 do
    x := t.{((!x * 1103515245) + i) land mask};
    acc := !acc lxor Hashtbl.hash (Sys.opaque_identity (!x, i))
  done;
  ignore (Sys.opaque_identity !acc)

(** Host ns for four passes. *)
let time () =
  let t = Lazy.force table in
  let t0 = Spans.now () in
  for _ = 1 to 4 do
    pass t
  done;
  Spans.now () - t0

(** About what [time ()] typically reads on the 2-vCPU, 2.0 GHz Xeon host
    of README.md's baseline; only a fixed scale. *)
let nominal_ns = 90_000_000

(** [scale ~ref_ns] turns host seconds measured next to a reference
    reading of [ref_ns] into nominal-host seconds. *)
let scale ~ref_ns = float_of_int nominal_ns /. float_of_int ref_ns
