type entry = { ppn : int; page_shift : int; writable : bool; user : bool }

(* A slot is live iff
     valid  &&  gen = t.gen  &&  stamp > asid_floor(asid)  &&  epoch fresh.
   [flush_all] bumps [t.gen] (O(1)); [flush_asid] records the current
   LRU clock as that ASID's "floor", deadening every older stamp (O(1));
   a global [Accel] epoch change invalidates the whole structure lazily.
   Nothing ever iterates the slot array on a flush.

   The entry's fields live in the slot itself and the hot operations
   take and return slot indices ([-1] for a miss), so lookups and
   refills allocate nothing on the host. *)
type slot = {
  mutable valid : bool;
  mutable gen : int;
  mutable asid : int;
  mutable vpn : int;
  mutable stamp : int;
  mutable s_ppn : int;
  mutable s_shift : int;
  mutable s_writable : bool;
  mutable s_user : bool;
}

type t = {
  name : string;
  sets : int;
  ways : int;
  slots : slot array;
  asid_floors : (int, int) Hashtbl.t;
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
  let slots =
    Array.init entries (fun _ ->
        { valid = false; gen = 0; asid = 0; vpn = 0; stamp = 0;
          s_ppn = 0; s_shift = 12; s_writable = false; s_user = false })
  in
  { name; sets; ways; slots; asid_floors = Hashtbl.create 7; gen = 0;
    seen_epoch = Accel.current_epoch (); clock = 0; hits = 0; misses = 0 }

let name t = t.name
let capacity t = Array.length t.slots
let set_of t vpn = vpn land (t.sets - 1)

(* Mapping mutations elsewhere in the machine (EPT unmap/remap, guest
   page-table unmap, table teardown) bump the global epoch; drop all
   entries the first time we are consulted afterwards. *)
let sync t =
  let e = Accel.current_epoch () in
  if t.seen_epoch <> e then begin
    t.seen_epoch <- e;
    t.gen <- t.gen + 1;
    Hashtbl.reset t.asid_floors
  end

let floor_of t asid =
  if Hashtbl.length t.asid_floors = 0 then min_int
  else match Hashtbl.find t.asid_floors asid with
    | f -> f
    | exception Not_found -> min_int

let live t s = s.valid && s.gen = t.gen && s.stamp > floor_of t s.asid

let rec scan t ~asid ~vpn ~floor i stop =
  if i = stop then -1
  else
    let s = t.slots.(i) in
    if s.valid && s.gen = t.gen && s.asid = asid && s.vpn = vpn && s.stamp > floor
    then i
    else scan t ~asid ~vpn ~floor (i + 1) stop

let find t ~asid ~vpn =
  let base = set_of t vpn * t.ways in
  scan t ~asid ~vpn ~floor:(floor_of t asid) base (base + t.ways)

let lookup_slot t ~asid ~vpn =
  sync t;
  t.clock <- t.clock + 1;
  let i = find t ~asid ~vpn in
  if i >= 0 then begin
    t.slots.(i).stamp <- t.clock;
    t.hits <- t.hits + 1
  end
  else t.misses <- t.misses + 1;
  i

let lookup t ~asid ~vpn =
  let i = lookup_slot t ~asid ~vpn in
  if i < 0 then None
  else
    let s = t.slots.(i) in
    Some { ppn = s.s_ppn; page_shift = s.s_shift; writable = s.s_writable; user = s.s_user }

let slot_ppn t i = t.slots.(i).s_ppn
let slot_writable t i = t.slots.(i).s_writable
let slot_user t i = t.slots.(i).s_user

(* Hot-line revalidation: the caller remembered slot [i] from an earlier
   lookup of the same (asid, vpn). If the slot still holds that live
   mapping, replicate the observable effects of a hit (LRU clock,
   stamp, hit counter) without scanning the set. Failure counts
   nothing — the caller falls back to [lookup_slot], which accounts
   the access. *)
let slot_hit t i ~asid ~vpn =
  sync t;
  let s = t.slots.(i) in
  if s.valid && s.gen = t.gen && s.asid = asid && s.vpn = vpn
     && s.stamp > floor_of t asid
  then begin
    t.clock <- t.clock + 1;
    s.stamp <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else false

let fill t ~asid ~vpn ~ppn ~page_shift ~writable ~user =
  sync t;
  t.clock <- t.clock + 1;
  let i = find t ~asid ~vpn in
  let s =
    if i >= 0 then t.slots.(i)
    else begin
      (* Prefer a dead slot, otherwise evict the LRU way. *)
      let base = set_of t vpn * t.ways in
      let victim = ref t.slots.(base) in
      for w = 1 to t.ways - 1 do
        let s = t.slots.(base + w) in
        let v = !victim in
        if live t v && ((not (live t s)) || s.stamp < v.stamp) then victim := s
      done;
      let s = !victim in
      s.valid <- true;
      s.gen <- t.gen;
      s.asid <- asid;
      s.vpn <- vpn;
      s
    end
  in
  s.s_ppn <- ppn;
  s.s_shift <- page_shift;
  s.s_writable <- writable;
  s.s_user <- user;
  s.stamp <- t.clock

let insert t ~asid ~vpn e =
  fill t ~asid ~vpn ~ppn:e.ppn ~page_shift:e.page_shift ~writable:e.writable ~user:e.user

let flush_all t =
  sync t;
  t.gen <- t.gen + 1;
  Hashtbl.reset t.asid_floors

let flush_asid t ~asid =
  sync t;
  (* Everything tagged [asid] with stamp <= now is dead; entries the
     ASID inserts later get fresher stamps and match again. *)
  Hashtbl.replace t.asid_floors asid t.clock

let flush_page t ~asid ~vpn =
  sync t;
  let i = find t ~asid ~vpn in
  if i >= 0 then t.slots.(i).valid <- false

let flush_vpn_all_asids t ~vpn =
  sync t;
  let base = set_of t vpn * t.ways in
  for w = 0 to t.ways - 1 do
    let s = t.slots.(base + w) in
    if s.vpn = vpn then s.valid <- false
  done

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
