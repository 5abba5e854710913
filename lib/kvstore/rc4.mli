(** RC4 stream cipher — the encryption server's workload (Figure 1).

    The cipher is real (the pipeline round-trips plaintext through
    encrypt + store + fetch + decrypt, and a known-answer test pins the
    keystream); its micro-architectural footprint is modelled by
    streaming the S-box region through the serving core's caches and
    charging per-byte mixing work. *)

type t

val create : Sky_sim.Machine.t -> key:string -> t

val crypt : t -> Sky_sim.Cpu.t -> bytes -> bytes
(** Encrypt/decrypt (RC4 is symmetric) with a fresh key schedule,
    charging [ksa_cycles + cycles_per_byte * length]. *)

val crypt_pure : bytes -> bytes -> bytes
(** [crypt_pure key data]: the bare cipher, for tests. *)
