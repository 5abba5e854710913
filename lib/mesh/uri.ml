type t = { scheme : string; path : string }

exception Bad_uri of string

let scheme_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '+' || c = '.' || c = '-'

(* Length of the scheme: the index of the first ["://"], checked. Scans
   in place, so finding the routing key copies nothing. *)
let scheme_length s =
  let n = String.length s in
  let i = ref 0 in
  while
    !i + 3 <= n
    && not (s.[!i] = ':' && s.[!i + 1] = '/' && s.[!i + 2] = '/')
  do
    incr i
  done;
  if !i + 3 > n || !i = 0 then raise (Bad_uri s);
  for j = 0 to !i - 1 do
    if not (scheme_char s.[j]) then raise (Bad_uri s)
  done;
  !i

let parse s =
  let i = scheme_length s in
  { scheme = String.sub s 0 i; path = String.sub s (i + 3) (String.length s - i - 3) }

let service s = String.sub s 0 (scheme_length s)
let to_string t = t.scheme ^ "://" ^ t.path
let pp fmt t = Format.pp_print_string fmt (to_string t)
