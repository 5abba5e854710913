(** Seeded, deterministic fault-plan engine.

    Faults are armed at named {e sites} threaded through the hot layers
    (["sim.cycle"], ["mmu.walk"], ["exec.step"], ["ipc.leg"],
    ["server.<name>"], ["subkernel.call"]) and fire by cycle count, call
    count, or probability. All randomness is per-arm splitmix64 state
    derived from the engine seed and the site name, so a plan's firing
    schedule is independent of arm interleaving and bit-reproducible
    run-to-run.

    By default all operations act on a process-wide engine, like
    {!Sky_trace.Trace}: when disabled every hook is a single atomic
    read, costs zero simulated cycles, and perturbs nothing. The
    parallel scheduler binds a {e fresh} engine domain-locally per
    shard ({!fresh_engine} / {!with_engine}) so concurrent shards arm,
    fire and log independently — a shard's fault schedule and census
    are identical whether it ran sequentially or on its own domain. *)

type kind =
  | Crash  (** the component dies mid-operation *)
  | Hang  (** the handler burns cycles past any watchdog budget *)
  | Revoke  (** the binding is revoked out from under the client *)
  | Ept_fault  (** a spurious EPT violation during the call *)
  | Drop  (** the message/leg is dropped (transport-level loss) *)

type trigger =
  | At_cycle of int  (** first check whose clock reading is >= the cycle *)
  | At_hit of int  (** the n-th check of this site (1-based) *)
  | Every of int  (** every n-th check of this site *)
  | Prob of float  (** each check independently, with probability p *)

exception Injected of { site : string; kind : kind }
(** Raised by hook sites when an armed fault fires. *)

type engine
(** One fault engine: its own enable bit, scope depth, seed, clock,
    arms and fired log. *)

val fresh_engine : ?seed:int -> unit -> engine
(** A new, disabled engine with no arms (seed default 0). *)

val with_engine : engine -> (unit -> 'a) -> 'a
(** Run a thunk with every [Fault] operation in this domain acting on
    [engine] instead of the process-wide default (exception-safe,
    restores the previous binding; the binding is domain-local, so
    concurrent domains can each hold a different engine). *)

val reset : ?seed:int -> unit -> unit
(** Clear all arms and the fired log, reseed, and enable the (current)
    engine. *)

val disable : unit -> unit
(** Turn the engine off (arms and fired log are kept for readout). *)

val is_enabled : unit -> bool

val set_clock : (int -> int) -> unit
(** [set_clock f] installs the cycle clock ([f core] = current cycle of
    [core]); {!Sky_sim.Machine.create} installs it. *)

val arm : ?budget:int -> site:string -> kind:kind -> trigger -> unit
(** Arm a fault at [site]. [budget] (default 1) bounds how many times the
    arm may fire before it is exhausted. *)

val check : ?scoped:bool -> core:int -> string -> kind option
(** Evaluate [site]'s arms against one hit; [Some kind] means a fault
    fires now (the arm's budget is consumed and a ["fault.<site>"] trace
    instant is emitted). [scoped] (default [false]) restricts firing to
    inside a {!with_scope} / {!enter_scope} window — ambient sites on the
    IPC path use it so faults land inside a mediated call, not in
    unrecoverable setup code. *)

val inject : core:int -> string -> unit
(** [check ~scoped:true] and raise {!Injected} if a fault fires — the
    one-liner for ambient hook sites (sim/mmu/exec/ipc). *)

val enter_scope : unit -> unit
val leave_scope : unit -> unit

val with_scope : (unit -> 'a) -> 'a
(** Run a thunk with the scoped-site window open (exception-safe). *)

val in_scope : unit -> bool

val fired : unit -> (string * kind * int) list
(** Chronological log of fired faults: (site, kind, cycle). *)

val fired_counts : unit -> (string * int) list
(** Fires per site, sorted by site name (census-stable order). *)
