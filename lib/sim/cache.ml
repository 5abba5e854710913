type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  index_shift : int;
  sets_shift : int; (* log2 sets, precomputed: access is the simulator's hottest loop *)
  tags : int array; (* sets * ways; -1 = invalid *)
  stamps : int array; (* LRU timestamps, parallel to [tags] *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable moves : int;
      (* bumped by every fill and every flush: while it holds still, no
         tag has moved *)
  mutable run_keys : int array;
      (* the run replay's memo, [||] until the first run is recorded:
         per entry, the first line's address, the line count, and
         [moves] when recorded (-1 = not replayable) *)
  mutable run_slots : int array;
      (* per entry, [max_run_lines] slots: where each line hit *)
  mutable run_victim : int;  (* round-robin entry for the next new run *)
  mutable rec_at : int;  (* entry the current pass records into, or -1 *)
  mutable rec_pos : int;  (* next index in [run_slots] *)
  mutable rec_moves : int;  (* [moves] when the pass began *)
}

let max_runs = 8
let max_run_lines = 128

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~size_bytes ~ways ~line_bytes =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line not pow2";
  if ways <= 0 then invalid_arg "Cache.create: ways <= 0";
  let lines = size_bytes / line_bytes in
  if lines * line_bytes <> size_bytes || lines mod ways <> 0 then
    invalid_arg "Cache.create: geometry does not divide";
  let sets = lines / ways in
  if not (is_pow2 sets) then invalid_arg "Cache.create: sets not pow2";
  {
    sets;
    ways;
    line_bytes;
    index_shift = log2 line_bytes;
    sets_shift = log2 sets;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    clock = 0;
    hits = 0;
    misses = 0;
    moves = 0;
    run_keys = [||];
    run_slots = [||];
    run_victim = 0;
    rec_at = -1;
    rec_pos = 0;
    rec_moves = 0;
  }

let sets t = t.sets
let line_bytes t = t.line_bytes

(* The set scan is an inline loop, and a miss picks the LRU way in a
   second one — invalid ways hold stamp 0, so the first of them wins.
   This runs on every simulated memory access: no calls (both helpers
   are inlined), no allocation, and a hit reads no stamps. *)
let[@inline] find_way (tags : int array) base ways (tag : int) =
  let i = ref base in
  while !i < base + ways && tags.(!i) <> tag do
    incr i
  done;
  !i

let[@inline] fill t base tag =
  t.misses <- t.misses + 1;
  t.moves <- t.moves + 1;
  let stamps = t.stamps in
  let victim = ref base in
  for w = base + 1 to base + t.ways - 1 do
    if stamps.(w) < stamps.(!victim) then victim := w
  done;
  t.tags.(!victim) <- tag;
  stamps.(!victim) <- t.clock

let access t pa =
  t.clock <- t.clock + 1;
  let line = pa lsr t.index_shift in
  let base = (line land (t.sets - 1)) * t.ways in
  let tag = line lsr t.sets_shift in
  let i = find_way t.tags base t.ways tag in
  if i < base + t.ways then begin
    t.stamps.(i) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    fill t base tag;
    false
  end

let probe t pa =
  let line = pa lsr t.index_shift in
  let base = (line land (t.sets - 1)) * t.ways in
  find_way t.tags base t.ways (line lsr t.sets_shift) < base + t.ways

let flush t =
  t.moves <- t.moves + 1;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0

(* ---- run replay ----

   A tag moves only on a fill or a flush, and appears at most once per
   set. So while [moves] is unchanged since a run's per-line pass hit on
   every line, each line is still in the slot that pass found, and a
   repeat of the pass would hit every one of them there: restamping the
   remembered slots in order, one clock tick each, and counting [count]
   hits is exactly what it would do. *)

(* The entry remembered for the run, or -1. The keys are one compact
   array, so a lookup that finds nothing reads a line or two. *)
let find_run t ~pa ~count =
  let keys = t.run_keys in
  let e = ref 0 in
  while !e < Array.length keys && not (keys.(!e) = pa && keys.(!e + 1) = count) do
    e := !e + 3
  done;
  if !e < Array.length keys then !e / 3 else -1

let replay t ~pa ~count =
  if count > max_run_lines then false
  else begin
    let e = find_run t ~pa ~count in
    if e >= 0 && t.run_keys.((3 * e) + 2) = t.moves then begin
      let slots = t.run_slots and stamps = t.stamps in
      let base = e * max_run_lines in
      for i = base to base + count - 1 do
        t.clock <- t.clock + 1;
        stamps.(slots.(i)) <- t.clock
      done;
      t.hits <- t.hits + count;
      true
    end
    else begin
      (* Arm the recording of the per-line pass the caller makes next. *)
      if Array.length t.run_keys = 0 then begin
        t.run_keys <- Array.make (3 * max_runs) (-1);
        t.run_slots <- Array.make (max_runs * max_run_lines) 0
      end;
      let e =
        if e >= 0 then e
        else begin
          let v = t.run_victim in
          t.run_victim <- (v + 1) mod max_runs;
          v
        end
      in
      t.run_keys.(3 * e) <- pa;
      t.run_keys.((3 * e) + 1) <- count;
      t.run_keys.((3 * e) + 2) <- -1;
      t.rec_at <- e;
      t.rec_pos <- e * max_run_lines;
      t.rec_moves <- t.moves;
      false
    end
  end

(* {!access}, noting the slot of a hit for the run being recorded. *)
let access_recorded t pa =
  t.clock <- t.clock + 1;
  let line = pa lsr t.index_shift in
  let base = (line land (t.sets - 1)) * t.ways in
  let tag = line lsr t.sets_shift in
  let i = find_way t.tags base t.ways tag in
  if i < base + t.ways then begin
    t.stamps.(i) <- t.clock;
    t.hits <- t.hits + 1;
    if t.rec_at >= 0 then begin
      t.run_slots.(t.rec_pos) <- i;
      t.rec_pos <- t.rec_pos + 1
    end;
    true
  end
  else begin
    fill t base tag;
    false
  end

let end_run t =
  if t.rec_at >= 0 then begin
    if t.moves = t.rec_moves then t.run_keys.((3 * t.rec_at) + 2) <- t.moves;
    t.rec_at <- -1
  end

let same_state a b =
  a.tags = b.tags && a.stamps = b.stamps && a.clock = b.clock && a.hits = b.hits
  && a.misses = b.misses

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
