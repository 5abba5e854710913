(* Decimal integers written straight into byte buffers: the wire codec
   and the load generators' keys and tags format numbers without
   [Printf] or an intermediate [string_of_int]. What they write is
   exactly [string_of_int n]'s characters, [min_int] included (digits
   are taken from the non-positive [-|n|], which cannot overflow). *)

let length n =
  let rec go n acc = if n > -10 then acc else go (n / 10) (acc + 1) in
  if n < 0 then go n 2 else go (-n) 1

let blit n b off =
  let len = length n in
  if n < 0 then Bytes.set b off '-';
  let m = ref (if n < 0 then n else -n) in
  for i = off + len - 1 downto off + if n < 0 then 1 else 0 do
    Bytes.set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  off + len

let tag a x b y c =
  let la = String.length a and lb = String.length b in
  let s =
    Bytes.create (la + length x + lb + length y + String.length c)
  in
  Bytes.blit_string a 0 s 0 la;
  let off = blit x s la in
  Bytes.blit_string b 0 s off lb;
  let off = blit y s (off + lb) in
  Bytes.blit_string c 0 s off (String.length c);
  Bytes.unsafe_to_string s
