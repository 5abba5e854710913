(** Bounded retry with exponential backoff over {!Subkernel.call} — the
    client-side half of §7 recovery used by the kvstore/ycsb clients.

    On [Crashed] the server is restarted (orphans rebound) before the
    retry; on [Revoked] from an aborted direct call the binding is
    re-established; a top-level revoked binding never errors at all — it
    degrades to the slowpath inside {!Subkernel.call}. [Too_large] is
    never retried. *)

type stats = {
  mutable attempts : int;  (** total call attempts, including retries *)
  mutable retried_ok : int;  (** calls that succeeded after >= 1 retry *)
  mutable degraded : int;  (** calls served via the slowpath fallback *)
  mutable lost : int;  (** calls that exhausted the retry budget *)
  mutable restarts : int;  (** server restarts triggered *)
}

val create_stats : unit -> stats

type budget
(** A shared retry budget (token bucket): every fresh call deposits
    [ratio] tokens, every retry withdraws one. Under overload deposits
    dry up and retries are {e refused} — retry traffic is bounded to a
    fraction of offered traffic, so recovery can never amplify a
    saturation collapse. Also owns the deterministic jitter stream used
    to decorrelate backoff. *)

val budget : seed:int -> budget
(** Every fresh call deposits 0.2 tokens (the sustained retries allowed
    per fresh call) and the bucket holds at most 32 (the burst); it
    starts half full. *)

val budget_refused : budget -> int
(** Retries suppressed because the bucket was empty (each surfaces as a
    {!Gave_up}). *)

val budget_withdrawn : budget -> int

exception Gave_up of Subkernel.call_error
(** The retry budget is exhausted, or the error is one no retry can
    mend ([Too_large], raised on the first attempt); carries the last
    typed error. *)

val call :
  ?max_attempts:int ->
  ?stats:stats ->
  ?budget:budget ->
  ?timeout:int ->
  ?on_crash:(int -> unit) ->
  Subkernel.t ->
  core:int ->
  client:Sky_ukernel.Proc.t ->
  server_id:int ->
  bytes ->
  bytes
(** [call sb ~core ~client ~server_id msg] with up to [max_attempts]
    (default 4) attempts, charging [2000 lsl attempt] cycles between
    attempts; with a [budget], each retry must also
    withdraw a token (else the call gives up immediately) and the
    backoff is decorrelated-jittered from the budget's seeded stream.
    [on_crash sid] runs after a crashed server [sid] has been restarted
    (e.g. to remount a file system). *)
