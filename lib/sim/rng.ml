(** Deterministic pseudo-random numbers (splitmix64).

    All randomness in the simulator (calling keys, workload key choice,
    synthetic binary corpus) flows through explicitly seeded generators so
    every experiment is reproducible run-to-run. *)

(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable
   int64] field would box a fresh state on every draw. *)
type t = bytes

external get_state : bytes -> int -> int64 = "%caml_bytes_get64u"
external set_state : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let create ~seed =
  let t = Bytes.create 8 in
  set_state t 0 (Int64.of_int seed);
  t

(* One splitmix64 step: advance the state, return the mixed output.
   Inlined into each caller, so no [int64] crosses a call. *)
let[@inline] step t =
  let open Int64 in
  let z = add (get_state t 0) 0x9E3779B97F4A7C15L in
  set_state t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 t = step t
let next t = Int64.to_int (step t) land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  next t mod bound

let float t =
  (* 53 random bits mapped to [0, 1). *)
  float_of_int (next t land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)

let bytes t len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  b

let split t = create ~seed:(next t)
