(* Unit and property tests for the physical-memory and machine-simulator
   substrates (lib/mem, lib/sim). *)

open Sky_mem
open Sky_sim

let mem () = Phys_mem.create ~frames:64

(* ------------------------------------------------------------------ *)
(* Phys_mem                                                            *)
(* ------------------------------------------------------------------ *)

let test_u8_roundtrip () =
  let m = mem () in
  Phys_mem.write_u8 m 0 0xab;
  Phys_mem.write_u8 m 4097 0xcd;
  Alcotest.(check int) "byte 0" 0xab (Phys_mem.read_u8 m 0);
  Alcotest.(check int) "byte 4097" 0xcd (Phys_mem.read_u8 m 4097);
  Alcotest.(check int) "untouched is zero" 0 (Phys_mem.read_u8 m 100)

let test_u64_roundtrip () =
  let m = mem () in
  Phys_mem.write_u64 m 8 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Phys_mem.read_u64 m 8);
  (* little-endian byte order *)
  Alcotest.(check int) "low byte" 0x88 (Phys_mem.read_u8 m 8);
  Alcotest.(check int) "high byte" 0x11 (Phys_mem.read_u8 m 15)

let test_u64_alignment () =
  let m = mem () in
  Alcotest.check_raises "unaligned read"
    (Invalid_argument "Phys_mem.read_u64: unaligned 0x9") (fun () ->
      ignore (Phys_mem.read_u64 m 9))

let test_out_of_range () =
  let m = mem () in
  let size = Phys_mem.size_bytes m in
  (try
     ignore (Phys_mem.read_u8 m size);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    Phys_mem.write_u8 m (-1) 0;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_bytes_span_frames () =
  let m = mem () in
  let data = Bytes.init 9000 (fun i -> Char.chr (i land 0xff)) in
  Phys_mem.write_bytes m 100 data;
  let back = Phys_mem.read_bytes m 100 9000 in
  Alcotest.(check bool) "spanning blit roundtrips" true (Bytes.equal data back)

let test_lazy_frames () =
  let m = Phys_mem.create ~frames:1024 in
  Alcotest.(check int) "no frames touched" 0 (Phys_mem.touched_frames m);
  Phys_mem.write_u8 m 0 1;
  Phys_mem.write_u8 m (5 * 4096) 1;
  Alcotest.(check int) "two frames touched" 2 (Phys_mem.touched_frames m)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"phys_mem blit roundtrips at random offsets"
    ~count:100
    QCheck.(pair (int_bound 20000) (string_of_size (Gen.int_range 1 5000)))
    (fun (off, s) ->
      let m = mem () in
      Phys_mem.write_bytes m off (Bytes.of_string s);
      Bytes.to_string (Phys_mem.read_bytes m off (String.length s)) = s)

(* ------------------------------------------------------------------ *)
(* Frame_alloc                                                         *)
(* ------------------------------------------------------------------ *)

let test_alloc_distinct () =
  let m = mem () in
  let a = Frame_alloc.create m in
  let f1 = Frame_alloc.alloc_frame a in
  let f2 = Frame_alloc.alloc_frame a in
  Alcotest.(check bool) "distinct frames" true (f1 <> f2);
  Alcotest.(check int) "aligned" 0 (f1 land 4095);
  Alcotest.(check int) "in use" 2 (Frame_alloc.in_use a)

let test_alloc_zeroed () =
  let m = mem () in
  let a = Frame_alloc.create m in
  let f = Frame_alloc.alloc_frame a in
  Phys_mem.write_u8 m f 7;
  Frame_alloc.free_frame a f;
  let f' = Frame_alloc.alloc_frame a in
  Alcotest.(check int) "same frame reused" f f';
  Alcotest.(check int) "zeroed on alloc" 0 (Phys_mem.read_u8 m f')

let test_alloc_contiguous () =
  let m = mem () in
  let a = Frame_alloc.create m in
  let base = Frame_alloc.alloc_frames a ~count:8 in
  Alcotest.(check int) "in use" 8 (Frame_alloc.in_use a);
  Frame_alloc.free_frames a ~pa:base ~count:8;
  Alcotest.(check int) "all freed" 0 (Frame_alloc.in_use a)

let test_reserve () =
  let m = mem () in
  let a = Frame_alloc.create m in
  Frame_alloc.reserve a ~first_frame:0 ~count:10;
  let f = Frame_alloc.alloc_frame a in
  Alcotest.(check bool) "skips reserved" true (Phys_mem.frame_of_addr f >= 10);
  Alcotest.check_raises "cannot free reserved"
    (Invalid_argument "Frame_alloc: freeing reserved frame 0") (fun () ->
      Frame_alloc.free_frame a 0)

let test_exhaustion () =
  let m = mem () in
  let a = Frame_alloc.create m in
  for _ = 1 to 64 do
    ignore (Frame_alloc.alloc_frame a)
  done;
  try
    ignore (Frame_alloc.alloc_frame a);
    Alcotest.fail "expected Out_of_memory"
  with Frame_alloc.Out_of_memory -> ()

let test_double_free () =
  let m = mem () in
  let a = Frame_alloc.create m in
  let f = Frame_alloc.alloc_frame a in
  Frame_alloc.free_frame a f;
  try
    Frame_alloc.free_frame a f;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"allocated runs never overlap" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 5))
    (fun counts ->
      let m = Phys_mem.create ~frames:256 in
      let a = Frame_alloc.create m in
      let allocs =
        List.filter_map
          (fun c ->
            try Some (Frame_alloc.alloc_frames a ~count:c, c)
            with Frame_alloc.Out_of_memory -> None)
          counts
      in
      let covered = Hashtbl.create 64 in
      List.for_all
        (fun (base, c) ->
          let ok = ref true in
          for i = 0 to c - 1 do
            let f = Phys_mem.frame_of_addr base + i in
            if Hashtbl.mem covered f then ok := false;
            Hashtbl.replace covered f ()
          done;
          !ok)
        allocs)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let small_cache () =
  Cache.create ~size_bytes:(4 * 64 * 2) ~ways:2 ~line_bytes:64
(* 4 sets, 2 ways *)

let test_cache_hit_after_access () =
  let c = small_cache () in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0x1000);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x1030)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* Three lines in the same set (stride = sets * line = 256). *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  ignore (Cache.access c 0);
  (* 0 is MRU *)
  ignore (Cache.access c 512);
  (* evicts 256 *)
  Alcotest.(check bool) "0 still present" true (Cache.probe c 0);
  Alcotest.(check bool) "256 evicted" false (Cache.probe c 256);
  Alcotest.(check bool) "512 present" true (Cache.probe c 512)

let test_cache_stats () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Cache.reset_stats c;
  Alcotest.(check int) "reset" 0 (Cache.hits c + Cache.misses c);
  Alcotest.(check bool) "contents survive reset" true (Cache.probe c 0)

let test_cache_geometry_validation () =
  try
    ignore (Cache.create ~size_bytes:100 ~ways:3 ~line_bytes:64);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_cache_capacity =
  QCheck.Test.make ~name:"working set <= capacity always hits after warmup"
    ~count:30
    QCheck.(int_range 1 8)
    (fun lines ->
      let c = small_cache () in
      (* [lines] distinct lines all mapping to different sets where
         possible; warm up twice, then every access hits. *)
      let addrs = List.init lines (fun i -> i * 64) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      List.for_all (fun a -> Cache.access c a) addrs)

(* Reference model: per set, the resident lines' tags, most recently
   used first; a miss drops the last one when the set is full. *)
type cache_op = C_access of int | C_probe of int | C_flush

let show_cache_op = function
  | C_access pa -> Printf.sprintf "access %#x" pa
  | C_probe pa -> Printf.sprintf "probe %#x" pa
  | C_flush -> "flush"

let prop_cache_model =
  let sets = 4 and ways = 4 in
  let pa = QCheck.Gen.(map2 (fun line off -> (line * 64) + off) (int_bound 23) (int_bound 63)) in
  let op =
    QCheck.Gen.(
      frequency
        [ (8, map (fun a -> C_access a) pa); (2, map (fun a -> C_probe a) pa);
          (1, return C_flush) ])
  in
  QCheck.Test.make ~name:"cache agrees with a per-set LRU list" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_cache_op l))
       QCheck.Gen.(list_size (int_range 1 120) op))
    (fun ops ->
      let c = Cache.create ~size_bytes:(sets * ways * 64) ~ways ~line_bytes:64 in
      let model = Array.make sets [] and hits = ref 0 and misses = ref 0 in
      List.iteri
        (fun step op ->
          let got, want =
            match op with
            | C_access pa ->
              let line = pa / 64 in
              let set = line mod sets in
              let resident = List.mem line model.(set) in
              let others = List.filter (( <> ) line) model.(set) in
              model.(set) <-
                line
                :: (if resident || List.length others < ways then others
                    else List.filteri (fun i _ -> i < ways - 1) others);
              if resident then incr hits else incr misses;
              (Cache.access c pa, resident)
            | C_probe pa -> (Cache.probe c pa, List.mem (pa / 64) model.((pa / 64) mod sets))
            | C_flush ->
              Cache.flush c;
              Array.fill model 0 sets [];
              (false, false)
          in
          if got <> want || Cache.hits c <> !hits || Cache.misses c <> !misses then
            QCheck.Test.fail_reportf "step %d (%s): got %b/%d hits/%d misses, model %b/%d/%d"
              step (show_cache_op op) got (Cache.hits c) (Cache.misses c) want !hits !misses)
        ops;
      true)

(* Run replay: a state-only range touch on one core (which records and
   replays runs) against the per-line path on an identical core (one
   [access_state_only] per line, never replayed). After every step each
   cache level's tags, stamps, clock and counters must agree. Lines
   [k * 64 + s] crowd the first L1 sets (16 tags for 8 ways) and a
   4-set-by-4-way L3, so fills and evictions are frequent; the touches
   come from twelve fixed runs — more than the replay table holds — so
   runs repeat, replay, and get displaced. *)
type replay_op =
  | Rp_state of Memsys.kind * int  (** state-only touch of run [i] *)
  | Rp_charged of Memsys.kind * int  (** charged touch of run [i] *)
  | Rp_single of bool * Memsys.kind * int  (** one access, charged or not *)
  | Rp_flush of int  (** flush L1i, L1d, L2 or L3 *)

let replay_runs =
  Array.init 12 (fun i ->
      let k = i mod 5 and s = i mod 3 in
      (* (pa, len): some runs start and end mid-line *)
      (((k * 64) + s) * 64 + (i land 1) * 24, (1 + (i mod 6)) * 64 - (i land 1) * 30))

let show_replay_op op =
  let kind = function Memsys.Insn -> "i" | Memsys.Data -> "d" in
  match op with
  | Rp_state (k, i) -> Printf.sprintf "state-only %s run %d" (kind k) i
  | Rp_charged (k, i) -> Printf.sprintf "charged %s run %d" (kind k) i
  | Rp_single (c, k, l) -> Printf.sprintf "%s %s line %#x" (if c then "charged" else "state") (kind k) l
  | Rp_flush l -> Printf.sprintf "flush level %d" l

let prop_run_replay =
  let kind = QCheck.Gen.(map (fun b -> if b then Memsys.Insn else Memsys.Data) bool) in
  let run = QCheck.Gen.int_bound 11 in
  let line = QCheck.Gen.(map2 (fun k s -> (k * 64) + s) (int_bound 15) (int_bound 7)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (10, map2 (fun k i -> Rp_state (k, i)) kind run);
          (2, map2 (fun k i -> Rp_charged (k, i)) kind run);
          (3, map3 (fun c k l -> Rp_single (c, k, l)) bool kind line);
          (1, map (fun l -> Rp_flush l) (int_bound 3));
        ])
  in
  QCheck.Test.make ~name:"run replay agrees with the per-line path" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_replay_op l))
       QCheck.Gen.(list_size (int_range 1 2000) op))
    (fun ops ->
      let core () =
        Cpu.create ~id:0
          ~l3:(Cache.create ~size_bytes:(4 * 4 * 64) ~ways:4 ~line_bytes:64)
      in
      let sub = core () and ref_ = core () in
      let levels (c : Cpu.t) = [ c.Cpu.l1i; c.Cpu.l1d; c.Cpu.l2; c.Cpu.l3 ] in
      List.iteri
        (fun step op ->
          (match op with
          | Rp_state (k, i) ->
            let pa, len = replay_runs.(i) in
            Memsys.touch_range_state_only sub k ~pa ~len;
            for l = pa / 64 to (pa + len - 1) / 64 do
              Memsys.access_state_only ref_ k (l * 64)
            done
          | Rp_charged (k, i) ->
            let pa, len = replay_runs.(i) in
            Memsys.touch_range sub k ~pa ~len;
            Memsys.touch_range ref_ k ~pa ~len
          | Rp_single (charged, k, l) ->
            let f = if charged then Memsys.access else Memsys.access_state_only in
            f sub k (l * 64);
            f ref_ k (l * 64)
          | Rp_flush l ->
            Cache.flush (List.nth (levels sub) l);
            Cache.flush (List.nth (levels ref_) l));
          if
            not
              (List.for_all2 Cache.same_state (levels sub) (levels ref_)
              && Cpu.cycles sub = Cpu.cycles ref_)
          then QCheck.Test.fail_reportf "state diverged at step %d (%s)" step (show_replay_op op))
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Tlb                                                                 *)
(* ------------------------------------------------------------------ *)

let tlb () = Tlb.create ~entries:8 ~ways:2

let entry ppn = { Tlb.ppn; page_shift = 12; writable = true; user = true }

let test_tlb_insert_lookup () =
  let t = tlb () in
  Alcotest.(check bool) "miss first" true (Tlb.lookup t ~asid:1 ~vpn:5 = None);
  Tlb.insert t ~asid:1 ~vpn:5 (entry 42);
  (match Tlb.lookup t ~asid:1 ~vpn:5 with
  | Some e -> Alcotest.(check int) "ppn" 42 e.Tlb.ppn
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "other asid misses" true (Tlb.lookup t ~asid:2 ~vpn:5 = None)

let test_tlb_flush_asid () =
  let t = tlb () in
  Tlb.insert t ~asid:1 ~vpn:1 (entry 1);
  Tlb.insert t ~asid:2 ~vpn:1 (entry 2);
  Tlb.flush_asid t ~asid:1;
  Alcotest.(check bool) "asid1 flushed" true (Tlb.lookup t ~asid:1 ~vpn:1 = None);
  Alcotest.(check bool) "asid2 kept" true (Tlb.lookup t ~asid:2 ~vpn:1 <> None)

let test_tlb_flush_all () =
  let t = tlb () in
  Tlb.insert t ~asid:1 ~vpn:1 (entry 1);
  Tlb.flush_all t;
  Alcotest.(check bool) "flushed" true (Tlb.lookup t ~asid:1 ~vpn:1 = None)

let test_tlb_eviction () =
  let t = tlb () in
  (* 4 sets x 2 ways; vpns 0,4,8 share set 0. *)
  Tlb.insert t ~asid:0 ~vpn:0 (entry 0);
  Tlb.insert t ~asid:0 ~vpn:4 (entry 4);
  ignore (Tlb.lookup t ~asid:0 ~vpn:0);
  Tlb.insert t ~asid:0 ~vpn:8 (entry 8);
  Alcotest.(check bool) "lru (vpn 4) evicted" true (Tlb.lookup t ~asid:0 ~vpn:4 = None);
  Alcotest.(check bool) "mru kept" true (Tlb.lookup t ~asid:0 ~vpn:0 <> None)

(* Reference model of the replacement and invalidation policy: the
   slots in {!Tlb}'s index order (set-major), each empty or holding an
   entry stamped with the model clock of its last use. A lookup hit
   restamps; a fill overwrites the entry for its key, else takes the
   first empty way of the set, else the least recently used one; the
   flushes and an {!Accel} epoch bump empty the slots they cover. *)
type m_entry = {
  m_asid : int;
  m_vpn : int;
  m_ppn : int;
  m_writable : bool;
  m_user : bool;
  mutable m_used : int;
}

type tlb_op =
  | T_lookup of int * int
  | T_lookup_entry of int * int
  | T_fill of int * int * int * bool * bool
  | T_flush_all
  | T_flush_asid of int
  | T_flush_page of int * int
  | T_flush_vpn of int
  | T_bump

let show_tlb_op = function
  | T_lookup (a, v) -> Printf.sprintf "lookup_slot %d/%d" a v
  | T_lookup_entry (a, v) -> Printf.sprintf "lookup %d/%d" a v
  | T_fill (a, v, p, w, u) -> Printf.sprintf "fill %d/%d ppn %d w %b u %b" a v p w u
  | T_flush_all -> "flush_all"
  | T_flush_asid a -> Printf.sprintf "flush_asid %d" a
  | T_flush_page (a, v) -> Printf.sprintf "flush_page %d/%d" a v
  | T_flush_vpn v -> Printf.sprintf "flush_vpn_all_asids %d" v
  | T_bump -> "Accel.bump"

let prop_tlb_model =
  let sets = 2 and ways = 4 in
  let slots = sets * ways in
  let op =
    QCheck.Gen.(
      let asid = int_bound 2 and vpn = int_bound 11 in
      frequency
        [
          (6, map2 (fun a v -> T_lookup (a, v)) asid vpn);
          (2, map2 (fun a v -> T_lookup_entry (a, v)) asid vpn);
          ( 6,
            let* a = asid and* v = vpn and* p = int_bound 999 and* w = bool in
            let+ u = bool in
            T_fill (a, v, p, w, u) );
          (1, return T_flush_all);
          (1, map (fun a -> T_flush_asid a) asid);
          (1, map2 (fun a v -> T_flush_page (a, v)) asid vpn);
          (1, map (fun v -> T_flush_vpn v) vpn);
          (1, return T_bump);
        ])
  in
  QCheck.Test.make ~name:"TLB agrees with a per-set LRU model" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_tlb_op l))
       QCheck.Gen.(list_size (int_range 1 120) op))
    (fun ops ->
      Accel.with_scope (Accel.fresh_scope ()) @@ fun () ->
      let t = Tlb.create ~entries:slots ~ways in
      let m = Array.make slots None in
      let clock = ref 0 and hits = ref 0 and misses = ref 0 in
      let fail step op fmt =
        Printf.ksprintf
          (fun msg -> QCheck.Test.fail_reportf "step %d (%s): %s" step (show_tlb_op op) msg)
          fmt
      in
      let base vpn = vpn mod sets * ways in
      let find asid vpn =
        let rec go i =
          if i = base vpn + ways then -1
          else
            match m.(i) with
            | Some e when e.m_asid = asid && e.m_vpn = vpn -> i
            | _ -> go (i + 1)
        in
        go (base vpn)
      in
      let touch i = incr clock; (Option.get m.(i)).m_used <- !clock in
      let m_lookup asid vpn =
        let i = find asid vpn in
        if i >= 0 then (incr hits; touch i) else incr misses;
        i
      in
      let victim vpn =
        let rec go i best =
          if i = base vpn + ways then best
          else
            match (m.(i), m.(best)) with
            | None, _ -> i
            | Some e, Some b when e.m_used < b.m_used -> go (i + 1) i
            | _ -> go (i + 1) best
        in
        match m.(base vpn) with None -> base vpn | Some _ -> go (base vpn + 1) (base vpn)
      in
      let show = function
        | None -> "nothing"
        | Some e -> Printf.sprintf "%d/%d" e.m_asid e.m_vpn
      in
      let drop p = Array.iteri (fun i e -> match e with Some e when p e -> m.(i) <- None | _ -> ()) m in
      let check_entry step op i =
        let e = Option.get m.(i) in
        if Tlb.slot_ppn t i <> e.m_ppn || Tlb.slot_writable t i <> e.m_writable
           || Tlb.slot_user t i <> e.m_user
        then fail step op "slot %d holds another payload than the model's" i
      in
      List.iteri
        (fun step op ->
          (match op with
          | T_lookup (asid, vpn) ->
            let got = Tlb.lookup_slot t ~asid ~vpn and want = m_lookup asid vpn in
            if got <> want then fail step op "slot %d, model %d" got want;
            if got >= 0 then check_entry step op got
          | T_lookup_entry (asid, vpn) -> (
            match (Tlb.lookup t ~asid ~vpn, m_lookup asid vpn) with
            | None, -1 -> ()
            | Some e, i when i >= 0 ->
              let w = Option.get m.(i) in
              if e.Tlb.ppn <> w.m_ppn || e.Tlb.writable <> w.m_writable
                 || e.Tlb.user <> w.m_user || e.Tlb.page_shift <> 12
              then fail step op "entry differs from the model's"
            | got, i -> fail step op "hit %b, model slot %d" (got <> None) i)
          | T_fill (asid, vpn, ppn, writable, user) ->
            Tlb.fill t ~asid ~vpn ~ppn ~page_shift:12 ~writable ~user;
            let i = find asid vpn in
            let i = if i >= 0 then i else victim vpn in
            let evicted = m.(i) in
            incr clock;
            m.(i) <- Some { m_asid = asid; m_vpn = vpn; m_ppn = ppn; m_writable = writable;
                            m_user = user; m_used = !clock };
            (* Where the fill landed: a lookup of the entry just filled
               keeps it the most recently used, so the LRU order the
               rest of the sequence sees is unchanged. *)
            let got = Tlb.lookup_slot t ~asid ~vpn in
            ignore (m_lookup asid vpn);
            if got <> i then
              fail step op "landed in slot %d, model slot %d (evicting %s)" got i (show evicted);
            check_entry step op i
          | T_flush_all -> Tlb.flush_all t; drop (fun _ -> true)
          | T_flush_asid asid -> Tlb.flush_asid t ~asid; drop (fun e -> e.m_asid = asid)
          | T_flush_page (asid, vpn) ->
            Tlb.flush_page t ~asid ~vpn;
            drop (fun e -> e.m_asid = asid && e.m_vpn = vpn)
          | T_flush_vpn vpn -> Tlb.flush_vpn_all_asids t ~vpn; drop (fun e -> e.m_vpn = vpn)
          | T_bump -> Accel.bump (); drop (fun _ -> true));
          if Tlb.hits t <> !hits || Tlb.misses t <> !misses then
            fail step op "%d hits/%d misses, model %d/%d" (Tlb.hits t) (Tlb.misses t) !hits
              !misses)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Cpu / Machine / Memsys                                              *)
(* ------------------------------------------------------------------ *)

let test_cpu_charge () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let c = Machine.core machine 0 in
  Cpu.charge c 100;
  Cpu.charge c 50;
  Alcotest.(check int) "cycles accumulate" 150 (Cpu.cycles c);
  Cpu.advance_to c 120;
  Alcotest.(check int) "advance_to never goes back" 150 (Cpu.cycles c);
  Cpu.advance_to c 500;
  Alcotest.(check int) "advance_to goes forward" 500 (Cpu.cycles c)

let test_machine_sync () =
  let machine = Machine.create ~cores:3 ~mem_mib:16 () in
  Cpu.charge (Machine.core machine 1) 1000;
  Alcotest.(check int) "max across cores" 1000 (Machine.max_cycles machine);
  Machine.sync_cores machine;
  Alcotest.(check int) "core 0 advanced" 1000 (Cpu.cycles (Machine.core machine 0))

let test_memsys_latencies () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let c = Machine.core machine 0 in
  Memsys.access c Memsys.Data 0x4000;
  Alcotest.(check int) "cold access costs DRAM" Costs.lat_dram (Cpu.cycles c);
  Memsys.access c Memsys.Data 0x4000;
  Alcotest.(check int) "then L1"
    (Costs.lat_dram + Costs.lat_l1)
    (Cpu.cycles c)

let test_memsys_l2_fill () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let c = Machine.core machine 0 in
  (* Fill L1d (32 KiB, 512 lines) beyond capacity with a 64 KiB sweep;
     then the first line should still be in L2 (256 KiB). *)
  for i = 0 to 1023 do
    Memsys.access c Memsys.Data (i * 64)
  done;
  let before = Cpu.cycles c in
  Memsys.access c Memsys.Data 0;
  let lat = Cpu.cycles c - before in
  Alcotest.(check int) "L1 evicted, L2 hit" Costs.lat_l2 lat

let test_footprint_counters () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let c = Machine.core machine 0 in
  Memsys.access c Memsys.Insn 0;
  Memsys.access c Memsys.Data 4096;
  let fp = Cpu.footprint c in
  Alcotest.(check int) "l1i miss" 1 fp.Cpu.l1i_miss;
  Alcotest.(check int) "l1d miss" 1 fp.Cpu.l1d_miss;
  Alcotest.(check int) "both fell through l2" 2 fp.Cpu.l2_miss

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 10 (fun _ -> Rng.next a) in
  let ys = List.init 10 (fun _ -> Rng.next b) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:200 QCheck.int (fun seed ->
      let r = Rng.create ~seed in
      let f = Rng.float r in
      f >= 0.0 && f < 1.0)

(* ------------------------------------------------------------------ *)
(* Pmu                                                                 *)
(* ------------------------------------------------------------------ *)

let all_events =
  [
    Pmu.Ipi_sent; Pmu.Vm_exit; Pmu.Vmfunc_exec; Pmu.Syscall_exec;
    Pmu.Cr3_write; Pmu.Ipc_roundtrip; Pmu.Instruction;
  ]

let test_pmu_roundtrip () =
  let p = Pmu.create () in
  List.iter
    (fun ev -> Alcotest.(check int) "fresh is zero" 0 (Pmu.read p ev))
    all_events;
  Pmu.count p Pmu.Vmfunc_exec;
  Pmu.count p Pmu.Vmfunc_exec;
  Pmu.add p Pmu.Vmfunc_exec 40;
  Alcotest.(check int) "count + add accumulate" 42 (Pmu.read p Pmu.Vmfunc_exec)

let test_pmu_independent () =
  let p = Pmu.create () in
  List.iteri (fun i ev -> Pmu.add p ev (i + 1)) all_events;
  List.iteri
    (fun i ev ->
      Alcotest.(check int) (Pmu.name ev) (i + 1) (Pmu.read p ev))
    all_events;
  (* Two PMUs never share counters. *)
  let q = Pmu.create () in
  Alcotest.(check int) "fresh pmu untouched" 0 (Pmu.read q Pmu.Ipi_sent)

let test_pmu_reset () =
  let p = Pmu.create () in
  List.iter (fun ev -> Pmu.add p ev 7) all_events;
  Pmu.reset p;
  List.iter
    (fun ev -> Alcotest.(check int) "zero after reset" 0 (Pmu.read p ev))
    all_events

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mem_sim"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "u8 roundtrip" `Quick test_u8_roundtrip;
          Alcotest.test_case "u64 roundtrip LE" `Quick test_u64_roundtrip;
          Alcotest.test_case "u64 alignment enforced" `Quick test_u64_alignment;
          Alcotest.test_case "range checks" `Quick test_out_of_range;
          Alcotest.test_case "byte blits span frames" `Quick test_bytes_span_frames;
          Alcotest.test_case "frames materialize lazily" `Quick test_lazy_frames;
        ]
        @ qc [ prop_bytes_roundtrip ] );
      ( "frame_alloc",
        [
          Alcotest.test_case "distinct frames" `Quick test_alloc_distinct;
          Alcotest.test_case "frames zeroed on alloc" `Quick test_alloc_zeroed;
          Alcotest.test_case "contiguous runs" `Quick test_alloc_contiguous;
          Alcotest.test_case "reserved ranges" `Quick test_reserve;
          Alcotest.test_case "exhaustion raises" `Quick test_exhaustion;
          Alcotest.test_case "double free detected" `Quick test_double_free;
        ]
        @ qc [ prop_alloc_no_overlap ] );
      ( "cache",
        [
          Alcotest.test_case "hit after access" `Quick test_cache_hit_after_access;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "geometry validated" `Quick test_cache_geometry_validation;
        ]
        @ qc [ prop_cache_capacity; prop_cache_model; prop_run_replay ] );
      ( "tlb",
        [
          Alcotest.test_case "insert/lookup with asid" `Quick test_tlb_insert_lookup;
          Alcotest.test_case "flush_asid selective" `Quick test_tlb_flush_asid;
          Alcotest.test_case "flush_all" `Quick test_tlb_flush_all;
          Alcotest.test_case "LRU eviction" `Quick test_tlb_eviction;
        ]
        @ qc [ prop_tlb_model ] );
      ( "cpu_machine",
        [
          Alcotest.test_case "cycle charging" `Quick test_cpu_charge;
          Alcotest.test_case "core sync barrier" `Quick test_machine_sync;
          Alcotest.test_case "memsys latencies" `Quick test_memsys_latencies;
          Alcotest.test_case "L2 backstop" `Quick test_memsys_l2_fill;
          Alcotest.test_case "footprint counters" `Quick test_footprint_counters;
        ] );
      ( "pmu",
        [
          Alcotest.test_case "count/add/read roundtrip" `Quick test_pmu_roundtrip;
          Alcotest.test_case "events independent" `Quick test_pmu_independent;
          Alcotest.test_case "reset" `Quick test_pmu_reset;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds respected" `Quick test_rng_bounds;
        ]
        @ qc [ prop_rng_float_range ] );
    ]
