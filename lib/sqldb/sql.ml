type stmt =
  | Insert of { table : string; key : int; value : string }
  | Select of { table : string; key : int }
  | Update of { table : string; key : int; value : string }
  | Delete of { table : string; key : int }

exception Parse_error of string

type token = Word of string | Int of int | Str of string | Punct of char

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '(' | ')' | ',' | '=' | ';' | '*' -> go (i + 1) (Punct s.[i] :: acc)
      | '\'' ->
        (* string literal with '' escaping *)
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then fail "unterminated string literal"
          else if s.[j] = '\'' then
            if j + 1 < n && s.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              str (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf s.[j];
            str (j + 1)
          end
        in
        let next = str (i + 1) in
        go next (Str (Buffer.contents buf) :: acc)
      | c when (c >= '0' && c <= '9') || c = '-' ->
        let j = ref (i + 1) in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        let lit = String.sub s i (!j - i) in
        let v = try int_of_string lit with _ -> fail "bad integer %S" lit in
        go !j (Int v :: acc)
      | c when is_ident c ->
        let j = ref i in
        while !j < n && is_ident s.[!j] do
          incr j
        done;
        go !j (Word (String.lowercase_ascii (String.sub s i (!j - i))) :: acc)
      | c -> fail "unexpected character %C" c
  in
  go 0 []

(* Micro parser combinators over the token list. *)
let kw expect = function
  | Word w :: rest when w = expect -> rest
  | t ->
    fail "expected %s%s" (String.uppercase_ascii expect)
      (match t with Word w :: _ -> Printf.sprintf ", got %S" w | _ -> "")

let ident = function
  | Word w :: rest -> (w, rest)
  | _ -> fail "expected identifier"

let int_lit = function
  | Int v :: rest -> (v, rest)
  | _ -> fail "expected integer literal"

let str_lit = function
  | Str v :: rest -> (v, rest)
  | _ -> fail "expected string literal"

let punct c = function
  | Punct p :: rest when p = c -> rest
  | _ -> fail "expected %C" c

let finished = function
  | [] | [ Punct ';' ] -> ()
  | _ -> fail "trailing tokens"

(* WHERE key = <int> *)
let where_clause toks =
  let toks = kw "where" toks in
  let col, toks = ident toks in
  if col <> "key" then fail "only WHERE key = ... is supported";
  let toks = punct '=' toks in
  int_lit toks

(* Case-insensitive keywords; string literals in single quotes with ['']
   escaping. *)
let parse s =
  match tokenize s with
  | Word "insert" :: rest ->
    let rest = kw "into" rest in
    let table, rest = ident rest in
    let rest = kw "values" rest in
    let rest = punct '(' rest in
    let key, rest = int_lit rest in
    let rest = punct ',' rest in
    let value, rest = str_lit rest in
    let rest = punct ')' rest in
    finished rest;
    Insert { table; key; value }
  | Word "select" :: rest ->
    let rest =
      match rest with
      | Punct '*' :: r -> r
      | Word "value" :: r -> r
      | _ -> fail "expected * or value after SELECT"
    in
    let rest = kw "from" rest in
    let table, rest = ident rest in
    let key, rest = where_clause rest in
    finished rest;
    Select { table; key }
  | Word "update" :: rest ->
    let table, rest = ident rest in
    let rest = kw "set" rest in
    let col, rest = ident rest in
    if col <> "value" then fail "only SET value = ... is supported";
    let rest = punct '=' rest in
    let value, rest = str_lit rest in
    let key, rest = where_clause rest in
    finished rest;
    Update { table; key; value }
  | Word "delete" :: rest ->
    let rest = kw "from" rest in
    let table, rest = ident rest in
    let key, rest = where_clause rest in
    finished rest;
    Delete { table; key }
  | Word w :: _ -> fail "unknown statement %S" w
  | _ -> fail "empty statement"

type result = Ok_affected of int | Row of string | Empty

let check_table db table =
  if table <> Db.name db then
    fail "no such table %S (this database has %S)" table (Db.name db)

(* The stored value is padded to the column width; strip trailing NULs on
   the way out. *)
let strip_nuls b =
  let s = Bytes.to_string b in
  match String.index_opt s '\000' with
  | Some i -> String.sub s 0 i
  | None -> s

let exec db ~core s =
  match parse s with
  | Insert { table; key; value } ->
    check_table db table;
    Db.insert db ~core ~key ~value:(Bytes.of_string value);
    Ok_affected 1
  | Select { table; key } -> (
    check_table db table;
    match Db.query db ~core ~key with
    | Some v -> Row (strip_nuls v)
    | None -> Empty)
  | Update { table; key; value } ->
    check_table db table;
    Ok_affected (if Db.update db ~core ~key ~value:(Bytes.of_string value) then 1 else 0)
  | Delete { table; key } ->
    check_table db table;
    Ok_affected (if Db.delete db ~core ~key then 1 else 0)
