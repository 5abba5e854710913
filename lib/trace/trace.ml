(** Cycle-accurate event tracer.

    Per-core bounded ring buffers of spans/instants keyed on *simulated*
    cycles (never wall clock): the clock is installed by
    {!Sky_sim.Machine.create} and reads the core's TSC. Recording never
    charges cycles, so enabling tracing cannot perturb a measurement —
    cycle counts are identical with tracing on or off (asserted in
    [test/test_trace.ml]).

    Alongside the raw event ring the tracer maintains three O(1)-update
    aggregates so exports survive ring overflow:
    - per-category cycle attribution ({!on_charge} hooks {!Sky_sim.Cpu.charge}
      and bills the innermost open span's category),
    - a latency {!Histogram} per span name,
    - folded call-stack self-cycles for flamegraphs.

    {b Contexts.} All tracer state (rings, stacks, aggregates, the
    clock) lives in a {!ctx}. Single-machine runs use the process-wide
    default context and never notice; the parallel scheduler gives each
    shard its own context via {!with_ctx}, bound domain-locally, so
    concurrent shards record into disjoint state and a shard's readout
    is identical whether it ran sequentially or on its own domain. The
    no-context fast path is one atomic load. *)

type ev = {
  name : string;
  cat : string;
  core : int;
  ts : int;  (** simulated cycles at event start *)
  dur : int;  (** span duration in cycles; -1 for an instant *)
}

let is_span e = e.dur >= 0

type ring = {
  mutable buf : ev array;
  mutable filled : int;  (** number of valid entries *)
  mutable next : int;  (** next write position *)
  mutable dropped : int;  (** events overwritten after wrap *)
}

(* An open span on a core's stack. [path] is the ";"-joined ancestry used
   for folded-stack output; [child] accumulates completed child spans'
   cycles so self-time = dur - child. *)
type frame = {
  f_name : string;
  f_cat : string;
  f_path : string;
  f_ts : int;
  mutable f_child : int;
}

let max_cores = 128
let default_capacity = 1 lsl 16

type ctx = {
  mutable c_capacity : int;
  mutable c_clock : int -> int;
  c_rings : ring option array;
  c_stacks : frame list array;
  c_cat_cycles : (string, int ref) Hashtbl.t;
  c_hists : (string, Histogram.t) Hashtbl.t;
  c_folded : (string, int ref) Hashtbl.t;
}

let fresh_ctx () =
  {
    c_capacity = default_capacity;
    c_clock = (fun _ -> 0);
    c_rings = Array.make max_cores None;
    c_stacks = Array.make max_cores [];
    c_cat_cycles = Hashtbl.create 16;
    c_hists = Hashtbl.create 16;
    c_folded = Hashtbl.create 64;
  }

let default_ctx = fresh_ctx ()

(* Number of domains currently bound to a non-default context. Zero on
   every hot path outside parallel runs, so [ctx ()] costs one atomic
   load and a branch. *)
let scoped_ctxs = Atomic.make 0

let ctx_key : ctx Domain.DLS.key = Domain.DLS.new_key (fun () -> default_ctx)

let ctx () =
  if Atomic.get scoped_ctxs = 0 then default_ctx else Domain.DLS.get ctx_key

let with_ctx c f =
  let prev = Domain.DLS.get ctx_key in
  Domain.DLS.set ctx_key c;
  Atomic.incr scoped_ctxs;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set ctx_key prev;
      Atomic.decr scoped_ctxs)
    f

(* The on/off switch stays process-wide: enabling tracing is a run-mode
   decision, not per-shard state, and an atomic read keeps the disabled
   hot path one load. *)
let enabled = Atomic.make false

let is_enabled () = Atomic.get enabled
let set_clock f = (ctx ()).c_clock <- f

let clear () =
  let c = ctx () in
  Array.fill c.c_rings 0 max_cores None;
  Array.fill c.c_stacks 0 max_cores [];
  Hashtbl.reset c.c_cat_cycles;
  Hashtbl.reset c.c_hists;
  Hashtbl.reset c.c_folded

let enable ?ring_capacity () =
  clear ();
  let c = ctx () in
  (match ring_capacity with
  | Some cap when cap > 0 -> c.c_capacity <- cap
  | Some _ -> invalid_arg "Trace.enable: ring_capacity <= 0"
  | None -> c.c_capacity <- default_capacity);
  Atomic.set enabled true

let disable () = Atomic.set enabled false

let ring_for c core =
  match c.c_rings.(core) with
  | Some r -> r
  | None ->
    let r = { buf = [||]; filled = 0; next = 0; dropped = 0 } in
    c.c_rings.(core) <- Some r;
    r

let push_ev c core e =
  if core >= 0 && core < max_cores then begin
    let r = ring_for c core in
    if Array.length r.buf = 0 then r.buf <- Array.make c.c_capacity e;
    if r.filled >= Array.length r.buf then r.dropped <- r.dropped + 1
    else r.filled <- r.filled + 1;
    r.buf.(r.next) <- e;
    r.next <- (r.next + 1) mod Array.length r.buf
  end

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl key (ref n)

let hist_for c name =
  match Hashtbl.find_opt c.c_hists name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace c.c_hists name h;
    h

(* ------------------------------------------------------------------ *)
(* Recording API                                                       *)
(* ------------------------------------------------------------------ *)

let instant ~core ?(cat = "") name =
  if is_enabled () && core >= 0 && core < max_cores then
    let c = ctx () in
    push_ev c core { name; cat; core; ts = c.c_clock core; dur = -1 }

(* A span recorded from explicit timestamps — for call sites whose begin
   and end are separated by early-exit paths (e.g. Subkernel calls). *)
let emit_span ~core ~cat name ~ts ~dur =
  if is_enabled () && core >= 0 && core < max_cores then begin
    let c = ctx () in
    push_ev c core { name; cat; core; ts; dur };
    Histogram.add (hist_for c name) dur;
    bump c.c_folded name dur
  end

let span ~core ~cat name f =
  if (not (is_enabled ())) || core < 0 || core >= max_cores then f ()
  else begin
    let c = ctx () in
    let ts0 = c.c_clock core in
    let path =
      match c.c_stacks.(core) with
      | parent :: _ -> parent.f_path ^ ";" ^ name
      | [] -> name
    in
    let fr = { f_name = name; f_cat = cat; f_path = path; f_ts = ts0; f_child = 0 } in
    c.c_stacks.(core) <- fr :: c.c_stacks.(core);
    let finish () =
      (match c.c_stacks.(core) with
      | top :: rest when top == fr -> c.c_stacks.(core) <- rest
      | _ ->
        (* Unbalanced pop (an inner span escaped via an exception we did
           not see): drop frames down to ours. *)
        let rec unwind = function
          | top :: rest -> if top == fr then rest else unwind rest
          | [] -> []
        in
        c.c_stacks.(core) <- unwind c.c_stacks.(core));
      let dur = c.c_clock core - fr.f_ts in
      (match c.c_stacks.(core) with
      | parent :: _ -> parent.f_child <- parent.f_child + dur
      | [] -> ());
      bump c.c_folded fr.f_path (max 0 (dur - fr.f_child));
      Histogram.add (hist_for c fr.f_name) dur;
      push_ev c core { name = fr.f_name; cat = fr.f_cat; core; ts = fr.f_ts; dur }
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Called by {!Sky_sim.Cpu.charge}: bill [c] cycles to the category of
   the innermost open span on [core]. *)
let on_charge ~core n =
  if is_enabled () && core >= 0 && core < max_cores then
    let c = ctx () in
    let cat =
      match c.c_stacks.(core) with fr :: _ -> fr.f_cat | [] -> "untracked"
    in
    bump c.c_cat_cycles cat n

(* Feed a named histogram directly (per-workload-op latencies that are
   not spans). *)
let record_latency name v =
  if is_enabled () then Histogram.add (hist_for (ctx ()) name) v

(* ------------------------------------------------------------------ *)
(* Readout                                                             *)
(* ------------------------------------------------------------------ *)

let events () =
  let c = ctx () in
  let acc = ref [] in
  for core = max_cores - 1 downto 0 do
    match c.c_rings.(core) with
    | None -> ()
    | Some r ->
      let len = Array.length r.buf in
      (* Oldest-first: the ring wraps at [next]. *)
      for i = r.filled downto 1 do
        let idx = (r.next - i + (2 * len)) mod len in
        acc := r.buf.(idx) :: !acc
      done
  done;
  List.sort (fun a b -> if a.ts <> b.ts then compare a.ts b.ts else compare a.core b.core) !acc

let dropped () =
  Array.fold_left
    (fun acc -> function Some r -> acc + r.dropped | None -> acc)
    0 (ctx ()).c_rings

let categories () =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) (ctx ()).c_cat_cycles []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let histograms () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (ctx ()).c_hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram name = Hashtbl.find_opt (ctx ()).c_hists name

let folded () =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) (ctx ()).c_folded []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
