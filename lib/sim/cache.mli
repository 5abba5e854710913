(** Set-associative cache with LRU replacement.

    Models one level of the Skylake hierarchy (L1i, L1d, L2, shared L3).
    Caches are indexed and tagged by physical address, at 64-byte line
    granularity. Only presence is modelled (no dirty writeback timing):
    the SkyBridge experiments need miss *counts* and miss *latency*, not a
    coherence protocol. *)

type t

val create : size_bytes:int -> ways:int -> line_bytes:int -> t
(** Raises [Invalid_argument] unless [size_bytes] is divisible into an
    integral power-of-two number of sets of [ways] lines. *)

val sets : t -> int
val line_bytes : t -> int

val access : t -> int -> bool
(** [access t pa] looks the line containing physical address [pa] up,
    inserting it (evicting the LRU way) on miss. Returns [true] on hit. *)

val probe : t -> int -> bool
(** Lookup without inserting or updating LRU state. *)

val flush : t -> unit

(** {2 Run replay}

    A host-side memo for state-only range touches
    ({!Memsys.touch_range_state_only}): it reproduces the observable
    state exactly — tags, LRU stamps, clock, hit and miss counters — and
    only skips the set scans. After a per-line pass over a run of lines
    that hit on every line, the cache remembers each line's slot (a few
    runs, a constant table allocated on first use). A later touch of
    the same run, with no fill and no flush in between, restamps those
    slots in order and counts the hits, which is what the per-line hits
    would do: a tag moves only on a fill or a flush and appears at most
    once per set, so every line is still in its slot. Charged accesses
    never replay. *)

val replay : t -> pa:int -> count:int -> bool
(** [replay t ~pa ~count] replays the run of [count] lines starting at
    the line address [pa] and returns [true] if it is remembered and the
    cache has had no fill or flush since. Otherwise it returns [false]
    and arms the recording of the per-line pass the caller makes next:
    one {!access_recorded} per line, in order, then {!end_run}. *)

val access_recorded : t -> int -> bool
(** {!access}, also noting the hit slot for the run being recorded. *)

val end_run : t -> unit
(** Ends the per-line pass; the run becomes replayable only if the pass
    filled nothing (no miss, hence no slot moved under it). *)

val same_state : t -> t -> bool
(** Equal tags, LRU stamps, clock and counters — everything a sequence
    of accesses can observe; the replay memo is not compared. *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
