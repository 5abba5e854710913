(** Host-time spans for the traced run.

    Spans live in a buffer preallocated at creation (name, start, end,
    parent, round, id, thread); once it is full further spans are only
    counted as dropped. Per-name totals and self times (duration minus
    the time child spans cover) are accumulated for every span, dropped
    or not, so the printed attribution covers the whole run. The buffer
    is written as Chrome [trace_event] JSON. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  cap : int;
  t0 : int;
  b_name : int array;
  b_start : int array;
  b_stop : int array;
  b_parent : int array;
  b_round : int array;
  b_id : int array;
  b_tid : int array;
  mutable n : int;
  mutable dropped : int;
  mutable round : int;
  (* interned names and their accumulators *)
  mutable names : string array;
  mutable count : int array;
  mutable total : int array;
  mutable self : int array;
  (* the open-span stack of the main thread *)
  st_name : int array;
  st_slot : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
}

let max_depth = 64

let create ~cap =
  let z () = Array.make cap 0 in
  {
    cap;
    t0 = now ();
    b_name = z ();
    b_start = z ();
    b_stop = z ();
    b_parent = z ();
    b_round = z ();
    b_id = z ();
    b_tid = z ();
    n = 0;
    dropped = 0;
    round = 0;
    names = [||];
    count = [||];
    total = [||];
    self = [||];
    st_name = Array.make max_depth 0;
    st_slot = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
  }

(** Intern a span name; do this once, outside the measured loop. *)
let name t s =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| s |];
      t.count <- Array.append t.count [| 0 |];
      t.total <- Array.append t.total [| 0 |];
      t.self <- Array.append t.self [| 0 |];
      i
    end
    else if t.names.(i) = s then i
    else find (i + 1)
  in
  find 0

let set_round t r = t.round <- r

(* Reserve a buffer slot, or -1 once the buffer is full. *)
let slot t ~name ~start ~parent ~id ~tid =
  if t.n = t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.b_name.(i) <- name;
    t.b_start.(i) <- start;
    t.b_stop.(i) <- start;
    t.b_parent.(i) <- parent;
    t.b_round.(i) <- t.round;
    t.b_id.(i) <- id;
    t.b_tid.(i) <- tid;
    i
  end

let account t ~name ~dur ~self =
  t.count.(name) <- t.count.(name) + 1;
  t.total.(name) <- t.total.(name) + dur;
  t.self.(name) <- t.self.(name) + self

(** A complete span measured elsewhere (another domain); [self] is
    supplied by the caller, who knows how its children overlapped.
    Returns the buffer slot, for use as a parent. *)
let record t ~name ~start ~stop ~self ~parent ~id ~tid =
  let s = slot t ~name ~start ~parent ~id ~tid in
  if s >= 0 then t.b_stop.(s) <- stop;
  account t ~name ~dur:(stop - start) ~self;
  s

let enter t name ~id =
  let d = t.depth in
  if d = max_depth then invalid_arg "Spans.enter: too deep";
  let start = now () in
  let parent = if d = 0 then -1 else t.st_slot.(d - 1) in
  t.st_name.(d) <- name;
  t.st_slot.(d) <- slot t ~name ~start ~parent ~id ~tid:0;
  t.st_start.(d) <- start;
  t.st_child.(d) <- 0;
  t.depth <- d + 1

let leave t =
  let stop = now () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - t.st_start.(d) in
  let s = t.st_slot.(d) in
  if s >= 0 then t.b_stop.(s) <- stop;
  account t ~name:t.st_name.(d) ~dur ~self:(dur - t.st_child.(d));
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  dur

(** [span t name f] runs [f] inside a span and returns its result. *)
let span t name f =
  enter t name ~id:(-1);
  match f () with
  | v ->
    ignore (leave t);
    v
  | exception e ->
    ignore (leave t);
    raise e

type layer = { l_name : string; l_count : int; l_total_ns : int; l_self_ns : int }

let layers t =
  Array.to_list
    (Array.mapi
       (fun i s ->
         { l_name = s; l_count = t.count.(i); l_total_ns = t.total.(i); l_self_ns = t.self.(i) })
       t.names)

(** Totals of the spans named [s] (all zero if none ran). *)
let layer t s =
  match List.find_opt (fun l -> l.l_name = s) (layers t) with
  | Some l -> l
  | None -> { l_name = s; l_count = 0; l_total_ns = 0; l_self_ns = 0 }

let per l ns = if l.l_count = 0 then 0.0 else float_of_int ns /. float_of_int l.l_count

(** Mean self time and mean duration per span of [s], in ns. *)
let self_per t s =
  let l = layer t s in
  per l l.l_self_ns

let total_per t s =
  let l = layer t s in
  per l l.l_total_ns

let dropped t = t.dropped
let recorded t = t.n

(** Chrome [trace_event] JSON ("X" complete events, microsecond
    timestamps relative to the tracer's creation). *)
let write_chrome t path =
  let oc = open_out path in
  let us ns = float_of_int ns /. 1000.0 in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"cat\":\"skyperf\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
       \"pid\":1,\"tid\":%d,\"args\":{\"round\":%d,\"id\":%d,\"parent\":%d}}"
      t.names.(t.b_name.(i))
      (us (t.b_start.(i) - t.t0))
      (us (t.b_stop.(i) - t.b_start.(i)))
      t.b_tid.(i) t.b_round.(i) t.b_id.(i) t.b_parent.(i)
  done;
  Printf.fprintf oc "\n],\"otherData\":{\"recorded\":%d,\"dropped\":%d}}\n" t.n t.dropped;
  close_out oc
