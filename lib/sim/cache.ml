type t = {
  name : string;
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
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~name ~size_bytes ~ways ~line_bytes =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line not pow2";
  if ways <= 0 then invalid_arg "Cache.create: ways <= 0";
  let lines = size_bytes / line_bytes in
  if lines * line_bytes <> size_bytes || lines mod ways <> 0 then
    invalid_arg "Cache.create: geometry does not divide";
  let sets = lines / ways in
  if not (is_pow2 sets) then invalid_arg "Cache.create: sets not pow2";
  {
    name;
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
  }

let name t = t.name
let sets t = t.sets
let ways t = t.ways
let line_bytes t = t.line_bytes

(* Slot of [tag] among the ways [i, stop), or [-1] for a miss. A
   toplevel loop rather than a local closure: this runs on every
   simulated memory access and must not allocate. *)
let rec scan (tags : int array) tag i stop =
  if i = stop then -1 else if tags.(i) = tag then i else scan tags tag (i + 1) stop

let find_slot t set tag =
  let base = set * t.ways in
  scan t.tags tag base (base + t.ways)

let access t pa =
  t.clock <- t.clock + 1;
  let line = pa lsr t.index_shift in
  let set = line land (t.sets - 1) in
  let tag = line lsr t.sets_shift in
  let slot = find_slot t set tag in
  if slot >= 0 then begin
    t.stamps.(slot) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict LRU way (or fill an invalid one). *)
    let base = set * t.ways in
    let victim = ref base in
    for w = 1 to t.ways - 1 do
      if t.stamps.(base + w) < t.stamps.(!victim) then victim := base + w
    done;
    t.tags.(!victim) <- tag;
    t.stamps.(!victim) <- t.clock;
    false
  end

let probe t pa =
  let line = pa lsr t.index_shift in
  find_slot t (line land (t.sets - 1)) (line lsr t.sets_shift) >= 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
