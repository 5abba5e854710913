(** Quantum-synchronized execution of independent simulation lanes
    (shards), sequentially or across OCaml domains.

    Lanes advance privately inside a fixed quantum of simulated cycles
    and synchronize at quantum boundaries; cross-lane interaction is
    deferred to the boundary [commit]. [Seq] and [Par] are
    bit-identical by construction — see the determinism argument in the
    implementation and DESIGN.md. *)

type lane = {
  l_name : string;
  l_advance : until:int -> [ `Paused | `Done ];
      (** Advance this lane's world until its clocks reach the boundary
          ([`Paused]) or its workload completes ([`Done]). Must bind the
          lane's {!Scopes} bundle itself: under [Par] it runs on a
          worker domain that also runs other lanes (and, for worker 0,
          the [commit]). *)
}

type engine =
  | Seq  (** advance lanes in order on the calling domain *)
  | Par of { jobs : int }
      (** advance lanes on [min jobs lanes] workers for the whole run:
          the calling domain is worker 0 and the rest are helper domains
          spawned once per [run], so [Par {jobs = 2}] uses two domains
          in total. Lane [i] stays on worker [i mod jobs]; workers meet
          at a mutex/condition barrier at each boundary. Helpers are
          joined before [run] returns, also when a lane or [commit]
          raises. *)

val default_quantum : int
(** 50k simulated cycles: coarse enough to amortize the barrier, fine
    enough that boundary commits (gossip, load rebalance) stay timely. *)

val run :
  ?quantum:int ->
  engine ->
  lanes:lane list ->
  ?commit:(boundary:int -> unit) ->
  unit ->
  int
(** Drive all lanes to completion; returns the number of quanta
    executed. After each quantum's barrier, [commit ~boundary] runs
    single-threaded on the caller — the only place cross-lane state may
    be touched. If lanes raise during a quantum, the barrier still
    completes, that quantum is not committed, and the exception of the
    lowest-numbered failing worker is re-raised. *)
