(** A cluster of independent web-serving shards driven by the
    quantum-synchronized scheduler ({!Sky_sim.Quantum}) — sequentially
    or in parallel on OCaml domains, with bit-identical results.

    Each shard runs a full machine + skyhttpd + load generator inside
    its own {!Sky_sim.Scopes} bundle; cross-shard gossip (cluster-wide
    served totals) happens only in the single-threaded boundary commit.
    {!digest} renders everything observable about the cluster into a
    canonical string; digest equality between engines is the
    determinism gate. *)

type t

val build :
  ?seed:int ->
  ?quantum:int ->
  ?conns:int ->
  ?requests_per_conn:int ->
  ?prepare:(shard:int -> unit) ->
  shards:int ->
  workers:int ->
  transport:Web.transport ->
  unit ->
  t
(** Build [shards] independent stacks of [workers] cores each, seeded
    distinctly from [seed]. [prepare] runs once per shard {e inside}
    its scope bundle — the hook for arming per-shard fault storms or
    enabling tracing. *)

val run : t -> Sky_sim.Quantum.engine -> int
(** Drive every shard to completion under the given engine; returns the
    number of quanta executed. *)

val digest : ?gossip:bool -> t -> string
(** Canonical rendering of all shard worlds: per-core clocks, PMU
    vectors, cache footprints, serving counters, latency percentiles,
    fired faults, trace-stream hash, gossip log. Two runs of the same
    cluster configuration are equivalent iff their digests are equal.
    [~gossip:false] omits the gossip log (which intentionally depends
    on the quantum size), for comparisons across different quanta. *)

val n_shards : t -> int
val quanta : t -> int
val served : t -> int
val errors : t -> int

val max_cycles : t -> int
(** Furthest-ahead core clock across all shards — the cluster's virtual
    elapsed time. *)

val shard_scope : t -> int -> Sky_sim.Scopes.t
val shard_web : t -> int -> Web.t
