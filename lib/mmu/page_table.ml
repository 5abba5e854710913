type fault = Not_present of int | Protection of int

exception Page_fault of fault

type t = { root : int; mutable owned : int list (* table-page PAs *) }

let create alloc =
  let root = Sky_mem.Frame_alloc.alloc_frame alloc in
  { root; owned = [ root ] }

let root_pa t = t.root
let va_index ~level va = (va lsr (12 + (9 * level))) land 0x1ff
let entry_pa table_pa idx = table_pa + (idx * 8)

(* Walk down to the PT level, allocating missing intermediate tables. *)
let rec table_for t ~mem ~alloc ~table_pa ~level ~va =
  if level = 0 then table_pa
  else begin
    let epa = entry_pa table_pa (va_index ~level va) in
    let e = Sky_mem.Phys_mem.read_u64 mem epa in
    let next =
      if Pte.is_present e then fst (Pte.decode e)
      else begin
        let page = Sky_mem.Frame_alloc.alloc_frame alloc in
        t.owned <- page :: t.owned;
        (* Intermediate entries are maximally permissive; the leaf gates. *)
        Sky_mem.Phys_mem.write_u64 mem epa (Pte.encode ~pa:page Pte.urw);
        page
      end
    in
    table_for t ~mem ~alloc ~table_pa:next ~level:(level - 1) ~va
  end

let map t ~mem ~alloc ~va ~pa ~flags =
  if va land 0xfff <> 0 || pa land 0xfff <> 0 then
    invalid_arg "Page_table.map: unaligned";
  let pt = table_for t ~mem ~alloc ~table_pa:t.root ~level:3 ~va in
  let epa = entry_pa pt (va_index ~level:0 va) in
  let old = Sky_mem.Phys_mem.read_u64 mem epa in
  let v = Pte.encode ~pa flags in
  Sky_mem.Phys_mem.write_u64 mem epa v;
  (* Remapping a live leaf invalidates cached translations machine-wide
     (TLBs, PSCs, EPT walk caches): bump the global epoch. Fresh installs
     don't — nothing positive can be cached for an unmapped page. *)
  if Pte.is_present old && old <> v then Sky_sim.Accel.bump ()

let map_range t ~mem ~alloc ~va ~pa ~len ~flags =
  let pages = (len + 4095) / 4096 in
  for i = 0 to pages - 1 do
    map t ~mem ~alloc ~va:(va + (i * 4096)) ~pa:(pa + (i * 4096)) ~flags
  done

let rec find_leaf ~mem ~table_pa ~level ~va =
  let epa = entry_pa table_pa (va_index ~level va) in
  let e = Sky_mem.Phys_mem.read_u64 mem epa in
  if not (Pte.is_present e) then None
  else if level = 0 then Some epa
  else find_leaf ~mem ~table_pa:(fst (Pte.decode e)) ~level:(level - 1) ~va

let unmap t ~mem ~va =
  match find_leaf ~mem ~table_pa:t.root ~level:3 ~va with
  | None -> ()
  | Some epa ->
    Sky_mem.Phys_mem.write_u64 mem epa Pte.zero;
    Sky_sim.Accel.bump ()

let protect t ~mem ~va ~flags =
  match find_leaf ~mem ~table_pa:t.root ~level:3 ~va with
  | None -> raise (Page_fault (Not_present va))
  | Some epa ->
    let old = Sky_mem.Phys_mem.read_u64 mem epa in
    let pa, _ = Pte.decode old in
    let v = Pte.encode ~pa flags in
    Sky_mem.Phys_mem.write_u64 mem epa v;
    if old <> v then Sky_sim.Accel.bump ()

type walk_result = { pa : int; flags : Pte.flags; entries_read : int list }

let walk ~mem ~root_pa ~va =
  let rec go table_pa level acc =
    let epa = entry_pa table_pa (va_index ~level va) in
    let e = Sky_mem.Phys_mem.read_u64 mem epa in
    let acc = epa :: acc in
    if not (Pte.is_present e) then Error (Not_present va)
    else
      let pa, flags = Pte.decode e in
      if level = 0 then
        Ok { pa = pa lor (va land 0xfff); flags; entries_read = List.rev acc }
      else go pa (level - 1) acc
  in
  go root_pa 3 []

let iter_leaves ~mem ~root_pa f =
  let rec go table level va_base =
    for e = 0 to 511 do
      let v = Sky_mem.Phys_mem.read_u64 mem (entry_pa table e) in
      if Pte.is_present v then begin
        let pa, flags = Pte.decode v in
        let va = va_base lor (e lsl (12 + (9 * level))) in
        if level = 0 then f ~va ~pa ~flags
        else go pa (level - 1) va
      end
    done
  in
  go root_pa 3 0

let pages t = List.length t.owned
