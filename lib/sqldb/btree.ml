(** B+tree over the pager: integer keys, fixed-size values.

    Page 0 is the table header (magic, root page, value size, record
    count); every other page is an internal node or a leaf. Leaves are
    chained for range scans. Deletion is lazy (no rebalancing) — like
    SQLite's freelist approach, pages are reused only via the allocator. *)

exception Corrupt of string

let magic = 0xB7EE
let header_page = 0

type t = {
  pager : Pager.t;
  mutable root : int;
  value_size : int;
  mutable count : int;
}

(* ---- header ---- *)

let write_header t ~core =
  let b = Bytes.make Pager.page_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int magic);
  Bytes.set_int32_le b 4 (Int32.of_int t.root);
  Bytes.set_int32_le b 8 (Int32.of_int t.value_size);
  Bytes.set_int32_le b 12 (Int32.of_int t.count);
  Pager.write t.pager ~core header_page b

(* ---- node encoding ---- *)

let node_internal = 1
let node_leaf = 2

let kind b = Char.code (Bytes.get b 0)
let set_kind b k = Bytes.set b 0 (Char.chr k)
let nkeys b = Bytes.get_uint16_le b 2
let set_nkeys b n = Bytes.set_uint16_le b 2 n

(* internal: child0 at 4; (key, child) pairs from 8 *)
let ikey b i = Int32.to_int (Bytes.get_int32_le b (8 + (i * 8)))
let ichild0 b = Int32.to_int (Bytes.get_int32_le b 4)
let ichild b i = Int32.to_int (Bytes.get_int32_le b (8 + (i * 8) + 4))
let set_ikey b i v = Bytes.set_int32_le b (8 + (i * 8)) (Int32.of_int v)
let set_ichild0 b v = Bytes.set_int32_le b 4 (Int32.of_int v)
let set_ichild b i v = Bytes.set_int32_le b (8 + (i * 8) + 4) (Int32.of_int v)
let internal_cap = (Pager.page_size - 8) / 8

(* leaf: next at 4; (key u32, value) records from 8 *)
let leaf_rec_size t = 4 + t.value_size
let leaf_cap t = (Pager.page_size - 8) / leaf_rec_size t
let lnext b = Int32.to_int (Bytes.get_int32_le b 4)
let set_lnext b v = Bytes.set_int32_le b 4 (Int32.of_int v)
let lkey t b i = Int32.to_int (Bytes.get_int32_le b (8 + (i * leaf_rec_size t)))
let set_lkey t b i v = Bytes.set_int32_le b (8 + (i * leaf_rec_size t)) (Int32.of_int v)
let lval t b i = Bytes.sub b (8 + (i * leaf_rec_size t) + 4) t.value_size

let set_lval t b i v =
  let padded = Bytes.make t.value_size '\000' in
  Bytes.blit v 0 padded 0 (min (Bytes.length v) t.value_size);
  Bytes.blit padded 0 b (8 + (i * leaf_rec_size t) + 4) t.value_size

(* ---- create / open ---- *)

let create pager ~core ~value_size =
  if value_size <= 0 || value_size > 512 then invalid_arg "Btree.create: value_size";
  let t = { pager; root = 0; value_size; count = 0 } in
  (* Header occupies page 0; the first leaf is page 1. *)
  let _ = Pager.alloc_page pager ~core in
  let root = Pager.alloc_page pager ~core in
  let b = Bytes.make Pager.page_size '\000' in
  set_kind b node_leaf;
  set_nkeys b 0;
  set_lnext b 0;
  Pager.write pager ~core root b;
  t.root <- root;
  write_header t ~core;
  t

let open_ pager ~core =
  let b = Pager.read pager ~core header_page in
  if Int32.to_int (Bytes.get_int32_le b 0) <> magic then raise (Corrupt "bad magic");
  {
    pager;
    root = Int32.to_int (Bytes.get_int32_le b 4);
    value_size = Int32.to_int (Bytes.get_int32_le b 8);
    count = Int32.to_int (Bytes.get_int32_le b 12);
  }

(* ---- search ---- *)

(* Child slot for [key] in internal node [b]: the last separator <= key,
   or child0. Returns the child page. *)
let child_for t b key =
  ignore t;
  let n = nkeys b in
  let rec go i best =
    if i >= n then best
    else if ikey b i <= key then go (i + 1) (ichild b i)
    else best
  in
  go 0 (ichild0 b)

(* Descend to the leaf for [key]; returns the internal-page path (root
   first) and the leaf (page number, contents). *)
let find_leaf t ~core key =
  let rec go page path =
    let b = Pager.read t.pager ~core page in
    if kind b = node_leaf then (path, page, b)
    else if kind b = node_internal then go (child_for t b key) (page :: path)
    else raise (Corrupt (Printf.sprintf "bad node kind %d" (kind b)))
  in
  go t.root []

(* Index of [key] in leaf [b], or the insertion point. *)
let leaf_search t b key =
  let n = nkeys b in
  let rec go i =
    if i >= n then Error n
    else
      let k = lkey t b i in
      if k = key then Ok i else if k > key then Error i else go (i + 1)
  in
  go 0

let query t ~core key =
  let _, _, b = find_leaf t ~core key in
  match leaf_search t b key with
  | Ok i -> Some (lval t b i)
  | Error _ -> None

(* ---- insertion ---- *)

(* Insert separator (key, child) into the internal node at [page],
   splitting upwards as needed. [path] holds the remaining ancestors
   (nearest first). *)
let rec insert_into_internal t ~core page path key child =
  let b = Pager.read t.pager ~core page in
  let n = nkeys b in
  (* Insertion point among separators. *)
  let pos =
    let rec go i = if i < n && ikey b i < key then go (i + 1) else i in
    go 0
  in
  if n < internal_cap then begin
    for i = n - 1 downto pos do
      set_ikey b (i + 1) (ikey b i);
      set_ichild b (i + 1) (ichild b i)
    done;
    set_ikey b pos key;
    set_ichild b pos child;
    set_nkeys b (n + 1);
    Pager.write t.pager ~core page b
  end
  else begin
    (* Split: gather all (key, child) pairs including the new one. *)
    let pairs = Array.init n (fun i -> (ikey b i, ichild b i)) in
    let pairs =
      Array.concat
        [ Array.sub pairs 0 pos; [| (key, child) |]; Array.sub pairs pos (n - pos) ]
    in
    let total = Array.length pairs in
    let mid = total / 2 in
    let mid_key, mid_child = pairs.(mid) in
    (* Left keeps pairs [0, mid); right takes (mid, total) with child0 =
       mid's child; mid_key is promoted. *)
    let right_pg = Pager.alloc_page t.pager ~core in
    let rb = Bytes.make Pager.page_size '\000' in
    set_kind rb node_internal;
    let right_pairs = Array.sub pairs (mid + 1) (total - mid - 1) in
    set_ichild0 rb mid_child;
    Array.iteri
      (fun i (k, c) ->
        set_ikey rb i k;
        set_ichild rb i c)
      right_pairs;
    set_nkeys rb (Array.length right_pairs);
    Pager.write t.pager ~core right_pg rb;
    set_nkeys b mid;
    Array.iteri
      (fun i (k, c) ->
        if i < mid then begin
          set_ikey b i k;
          set_ichild b i c
        end)
      pairs;
    Pager.write t.pager ~core page b;
    promote t ~core page path mid_key right_pg
  end

(* Promote separator (key, right) after [left_page] split. *)
and promote t ~core left_page path key right =
  match path with
  | parent :: rest -> insert_into_internal t ~core parent rest key right
  | [] ->
    (* The root split: make a new root. *)
    let root_pg = Pager.alloc_page t.pager ~core in
    let b = Bytes.make Pager.page_size '\000' in
    set_kind b node_internal;
    set_ichild0 b left_page;
    set_ikey b 0 key;
    set_ichild b 0 right;
    set_nkeys b 1;
    Pager.write t.pager ~core root_pg b;
    t.root <- root_pg;
    write_header t ~core

let insert t ~core ~key ~value =
  let path, leaf_pg, b = find_leaf t ~core key in
  match leaf_search t b key with
  | Ok i ->
    (* Overwrite in place. *)
    set_lval t b i value;
    Pager.write t.pager ~core leaf_pg b
  | Error pos ->
    let n = nkeys b in
    if n < leaf_cap t then begin
      for i = n - 1 downto pos do
        set_lkey t b (i + 1) (lkey t b i);
        set_lval t b (i + 1) (lval t b i)
      done;
      set_lkey t b pos key;
      set_lval t b pos value;
      set_nkeys b (n + 1);
      Pager.write t.pager ~core leaf_pg b;
      t.count <- t.count + 1
    end
    else begin
      (* Split the leaf. *)
      let recs =
        Array.init n (fun i -> (lkey t b i, lval t b i))
      in
      let recs =
        Array.concat
          [ Array.sub recs 0 pos; [| (key, value) |]; Array.sub recs pos (n - pos) ]
      in
      let total = Array.length recs in
      let mid = total / 2 in
      let right_pg = Pager.alloc_page t.pager ~core in
      let rb = Bytes.make Pager.page_size '\000' in
      set_kind rb node_leaf;
      set_lnext rb (lnext b);
      let right_n = total - mid in
      for i = 0 to right_n - 1 do
        let k, v = recs.(mid + i) in
        set_lkey t rb i k;
        set_lval t rb i v
      done;
      set_nkeys rb right_n;
      Pager.write t.pager ~core right_pg rb;
      set_nkeys b mid;
      for i = 0 to mid - 1 do
        let k, v = recs.(i) in
        set_lkey t b i k;
        set_lval t b i v
      done;
      set_lnext b right_pg;
      Pager.write t.pager ~core leaf_pg b;
      let sep = fst recs.(mid) in
      promote t ~core leaf_pg path sep right_pg;
      t.count <- t.count + 1
    end

let update t ~core ~key ~value =
  let _, leaf_pg, b = find_leaf t ~core key in
  match leaf_search t b key with
  | Ok i ->
    set_lval t b i value;
    Pager.write t.pager ~core leaf_pg b;
    true
  | Error _ -> false

let delete t ~core ~key =
  let _, leaf_pg, b = find_leaf t ~core key in
  match leaf_search t b key with
  | Error _ -> false
  | Ok i ->
    let n = nkeys b in
    for j = i to n - 2 do
      set_lkey t b j (lkey t b (j + 1));
      set_lval t b j (lval t b (j + 1))
    done;
    set_nkeys b (n - 1);
    Pager.write t.pager ~core leaf_pg b;
    t.count <- t.count - 1;
    true

let count t = t.count

(* Persist the header (root page + record count). The count is kept in
   memory between flushes — SQLite likewise does not touch its header on
   every row. *)
let flush t ~core = write_header t ~core

(* In-order scan via the leaf chain, for tests and range queries. *)
let fold t ~core f acc =
  (* Leftmost leaf. *)
  let rec leftmost page =
    let b = Pager.read t.pager ~core page in
    if kind b = node_leaf then page else leftmost (ichild0 b)
  in
  let rec walk page acc =
    if page = 0 then acc
    else begin
      let b = Pager.read t.pager ~core page in
      let acc = ref acc in
      for i = 0 to nkeys b - 1 do
        acc := f !acc (lkey t b i) (lval t b i)
      done;
      walk (lnext b) !acc
    end
  in
  walk (leftmost t.root) acc

let keys t ~core = List.rev (fold t ~core (fun acc k _ -> k :: acc) [])
