(** Global state for the translation-acceleration layer.

    Two pieces, both deliberately tiny so the hot path pays one atomic
    load:

    {b The kill switch.} All acceleration structures (paging-structure
    caches, EPT walk cache) consult [is_enabled]. Disabling them
    restores the pre-acceleration walker bit for bit — the cache-free
    reference the equivalence property tests against and the "before"
    column of the EXPERIMENTS.md pingpong table. The switch lives in
    the scope, not in process-wide state: the pingpong experiment
    toggles it mid-run, and a `--jobs` replica flipping a shared flag
    would perturb the measurements of replicas running concurrently on
    other domains.

    {b The mutation epoch.} Control-plane events that can invalidate a
    cached translation without going through an architectural flush —
    [Ept.unmap_4k], an EPT remap of a live leaf, [Page_table.unmap] /
    [protect], table destruction — bump an epoch. Every translation
    structure records the epoch it last observed and lazily self-flushes
    (O(1), via its generation counter) when it sees a newer one. This
    keeps the rare mutation path O(1) and the per-lookup cost at one
    integer compare, while guaranteeing that no stale entry survives a
    mapping change.

    The epoch lives in a {!scope}: single-machine runs use the
    process-wide default scope; the parallel scheduler binds a fresh
    scope domain-locally per shard ({!with_scope}) so one shard's EPT
    mutations never spuriously flush another shard's caches — which
    would otherwise make cycle counts depend on shard interleaving. *)

type scope = { mutable s_epoch : int; mutable s_enabled : bool }

let fresh_scope () = { s_epoch = 0; s_enabled = true }

let default_scope = fresh_scope ()

(* Number of domains bound to a non-default scope (fast default / scoped
   override, same pattern as {!Sky_trace.Trace}). *)
let scoped = Atomic.make 0

let scope_key : scope Domain.DLS.key = Domain.DLS.new_key (fun () -> default_scope)

let scope () =
  if Atomic.get scoped = 0 then default_scope else Domain.DLS.get scope_key

let with_scope s f =
  let prev = Domain.DLS.get scope_key in
  Domain.DLS.set scope_key s;
  Atomic.incr scoped;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set scope_key prev;
      Atomic.decr scoped)
    f

let is_enabled () = (scope ()).s_enabled

let current_epoch () = (scope ()).s_epoch

let bump () =
  let s = scope () in
  s.s_epoch <- s.s_epoch + 1

let set_enabled b =
  (scope ()).s_enabled <- b;
  (* Entries inserted before a disable/enable round trip may predate
     mutations performed while the structures were dormant: discard. *)
  bump ()
