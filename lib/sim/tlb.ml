type entry = { ppn : int; page_shift : int; writable : bool; user : bool }

(* Flat slot storage: field [f] of slot [i] is [data.(i * width + f)].
   A slot is live exactly when its generation is the table's.
   [flush_all] bumps [t.gen] (O(1)), and so does the first use after a
   global [Accel] epoch change; the other flushes write [dead] into the
   generation of each slot they drop. The hot operations take and
   return slot indices ([-1] for a miss) and keep their loops here, so a
   probe is one call from the translation layer and allocates nothing. *)
let width = 6
let f_gen = 0
let f_asid = 1
let f_vpn = 2
let f_stamp = 3
let f_ppn = 4
let f_bits = 5 (* page_shift lsl 2 lor writable lsl 1 lor user *)
let dead = -1

type t = {
  name : string;
  sets : int;
  ways : int;
  data : int array;
  mutable gen : int;
  mutable seen_epoch : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~name ~entries ~ways =
  if ways <= 0 || entries mod ways <> 0 then
    invalid_arg "Tlb.create: geometry does not divide";
  let sets = entries / ways in
  if not (is_pow2 sets) then invalid_arg "Tlb.create: sets not pow2";
  let data = Array.make (entries * width) 0 in
  for i = 0 to entries - 1 do
    data.((i * width) + f_gen) <- dead
  done;
  { name; sets; ways; data; gen = 0; seen_epoch = Accel.current_epoch ();
    clock = 0; hits = 0; misses = 0 }

let name t = t.name
let capacity t = Array.length t.data / width
let base_of t vpn = (vpn land (t.sets - 1)) * t.ways

(* Mapping mutations elsewhere in the machine (EPT unmap/remap, guest
   page-table unmap, table teardown) bump the global epoch; drop all
   entries the first time we are consulted afterwards. *)
let sync t =
  let e = Accel.current_epoch () in
  if t.seen_epoch <> e then begin
    t.seen_epoch <- e;
    t.gen <- t.gen + 1
  end

(* The live slot holding (asid, vpn), or [-1]. *)
let find t ~asid ~vpn =
  let d = t.data and gen = t.gen in
  let base = base_of t vpn in
  let i = ref base and found = ref (-1) in
  while !found < 0 && !i < base + t.ways do
    let o = !i * width in
    if d.(o + f_gen) = gen && d.(o + f_vpn) = vpn && d.(o + f_asid) = asid then
      found := !i;
    incr i
  done;
  !found

let lookup_slot t ~asid ~vpn =
  sync t;
  t.clock <- t.clock + 1;
  let i = find t ~asid ~vpn in
  if i >= 0 then begin
    t.data.((i * width) + f_stamp) <- t.clock;
    t.hits <- t.hits + 1
  end
  else t.misses <- t.misses + 1;
  i

let lookup_payload t ~asid ~key =
  let i = lookup_slot t ~asid ~vpn:key in
  if i < 0 then -1 else t.data.((i * width) + f_ppn)

let slot_ppn t i = t.data.((i * width) + f_ppn)
let slot_writable t i = t.data.((i * width) + f_bits) land 2 <> 0
let slot_user t i = t.data.((i * width) + f_bits) land 1 <> 0

let lookup t ~asid ~vpn =
  let i = lookup_slot t ~asid ~vpn in
  if i < 0 then None
  else
    Some
      { ppn = slot_ppn t i;
        page_shift = t.data.((i * width) + f_bits) lsr 2;
        writable = slot_writable t i;
        user = slot_user t i }

(* Hot-line revalidation: the caller remembered slot [i] from an earlier
   lookup of the same (asid, vpn). If the slot still holds that live
   mapping, replicate the observable effects of a hit (LRU clock,
   stamp, hit counter) without scanning the set. Failure counts
   nothing — the caller falls back to [lookup_slot], which accounts
   the access. *)
let slot_hit t i ~asid ~vpn =
  sync t;
  let d = t.data and o = i * width in
  if d.(o + f_gen) = t.gen && d.(o + f_vpn) = vpn && d.(o + f_asid) = asid then begin
    t.clock <- t.clock + 1;
    d.(o + f_stamp) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else false

let fill t ~asid ~vpn ~ppn ~page_shift ~writable ~user =
  sync t;
  t.clock <- t.clock + 1;
  let d = t.data and gen = t.gen in
  let base = base_of t vpn in
  (* One pass over the set: the live slot already holding (asid, vpn),
     else the way with the smallest key, the first on ties — a dead way
     keys [min_int], so the first dead way in index order wins, else
     the least recently used one. *)
  let i = ref base and slot = ref (-1) and victim = ref base
  and oldest = ref max_int in
  while !slot < 0 && !i < base + t.ways do
    let o = !i * width in
    let live = d.(o + f_gen) = gen in
    if live && d.(o + f_vpn) = vpn && d.(o + f_asid) = asid then slot := !i
    else begin
      let key = if live then d.(o + f_stamp) else min_int in
      if key < !oldest then begin
        victim := !i;
        oldest := key
      end
    end;
    incr i
  done;
  let o = (if !slot >= 0 then !slot else !victim) * width in
  d.(o + f_gen) <- gen;
  d.(o + f_asid) <- asid;
  d.(o + f_vpn) <- vpn;
  d.(o + f_stamp) <- t.clock;
  d.(o + f_ppn) <- ppn;
  d.(o + f_bits) <-
    (page_shift lsl 2) lor (if writable then 2 else 0) lor if user then 1 else 0

let fill_payload t ~asid ~key payload =
  fill t ~asid ~vpn:key ~ppn:payload ~page_shift:0 ~writable:false ~user:false

let insert t ~asid ~vpn e =
  fill t ~asid ~vpn ~ppn:e.ppn ~page_shift:e.page_shift ~writable:e.writable ~user:e.user

let flush_all t =
  sync t;
  t.gen <- t.gen + 1

let flush_asid t ~asid =
  sync t;
  let d = t.data in
  for i = 0 to capacity t - 1 do
    let o = i * width in
    if d.(o + f_gen) = t.gen && d.(o + f_asid) = asid then d.(o + f_gen) <- dead
  done

let flush_page t ~asid ~vpn =
  sync t;
  let i = find t ~asid ~vpn in
  if i >= 0 then t.data.((i * width) + f_gen) <- dead

let flush_vpn_all_asids t ~vpn =
  sync t;
  let base = base_of t vpn in
  for i = base to base + t.ways - 1 do
    if t.data.((i * width) + f_vpn) = vpn then t.data.((i * width) + f_gen) <- dead
  done

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
