(** Zipfian request distribution — YCSB's default key-popularity model
    (the Gray et al. method used by YCSB's ZipfianGenerator, with the
    standard constant θ = 0.99). *)

type t

val create : items:int -> Sky_sim.Rng.t -> t
val next : t -> int
(** Next item index in [\[0, items)]; low indices are the hot ones. *)
