(** Deterministic pseudo-random numbers (splitmix64).

    All randomness in the simulator — calling keys, workload key choice,
    the synthetic binary corpus — flows through explicitly seeded
    generators, so every experiment is reproducible run to run and the
    harness never consults [Random.self_init]. *)

type t
(** A generator. Its 64-bit state is kept unboxed, so {!next}, {!int},
    {!bool} and {!bytes} allocate nothing but their results. *)

val create : seed:int -> t

val next : t -> int
(** Uniform non-negative 62-bit integer. *)

val next_int64 : t -> int64
(** Uniform 64-bit value (calling keys, §4.4). *)

val int : t -> int -> int
(** [int t bound] in [\[0, bound)]. Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bytes : t -> int -> bytes
(** Random payloads for KV/YCSB values. *)

val split : t -> t
(** Independent child generator. *)
