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

let service s = String.sub s 0 (scheme_length s)

(* Toplevel, so a comparison builds no closure. *)
let rec same_prefix a b i n =
  i >= n || (String.unsafe_get a i = String.unsafe_get b i && same_prefix a b (i + 1) n)

(* A valid scheme holds no [':'], so [uri]'s first ["://"] is the one
   right after it. *)
let has_scheme scheme uri =
  let n = String.length scheme in
  String.length uri >= n + 3
  && uri.[n] = ':'
  && uri.[n + 1] = '/'
  && uri.[n + 2] = '/'
  && same_prefix scheme uri 0 n
