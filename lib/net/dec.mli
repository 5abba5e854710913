(** Decimal integers formatted in place, without [Printf] or an
    intermediate string. *)

val length : int -> int
(** [length n] is [String.length (string_of_int n)]. *)

val blit : int -> bytes -> int -> int
(** [blit n b off] writes [string_of_int n] into [b] at [off] and
    returns the offset just past it. *)

val tag : string -> int -> string -> int -> string -> string
(** [tag a x b y c] is [a ^ string_of_int x ^ b ^ string_of_int y ^ c],
    built in one fresh buffer. *)
