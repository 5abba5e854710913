(** Per-domain allowed-entry-point table for the filtered-syscall
    isolation backend: a client's cross-domain SYSCALL may only land on
    an entry point granted to (client, server) at bind time, checked at
    trap time before any context switch. *)

type t

val create : unit -> t

val allow : t -> pid:int -> server:int -> entry:int -> unit
(** Grant [pid] the right to enter [server] at [entry] (replaces any
    previous grant for the pair). *)

val revoke : t -> pid:int -> server:int -> unit

val check : t -> pid:int -> server:int -> entry:int -> bool
(** Trap-time filter: true iff the pair holds a grant for exactly this
    entry VA. Counts the check, and the denial when it fails. The
    {!Sky_sim.Costs.entry_filter_check} cycles are charged by the
    caller's kernel-entry path. *)

val size : t -> int

val entries : t -> (int * int * int) list
(** [(pid, server, entry)] grants, sorted — audit input. *)

val denials : t -> int
