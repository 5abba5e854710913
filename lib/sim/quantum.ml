(** Quantum-synchronized execution of independent simulation lanes.

    A {e lane} is a resumable run loop over one shard's private world
    (its own machine, tracer, fault engine — see {!Scopes}): told
    [advance ~until:b], it runs its virtual-time interleave until every
    core's clock reaches the boundary [b], then parks. Because lanes
    share no mutable state below the boundary, each can be advanced on
    its own host domain inside a quantum. Cross-lane interaction happens
    only in the [commit] callback, which runs single-threaded on the
    caller between quanta.

    [Par] keeps a worker pool for the length of one [run]: [jobs - 1]
    helper domains are spawned once and the calling domain works as
    worker 0. Worker [w] owns lanes [w], [w + jobs], ... for the whole
    run. At every boundary the caller publishes the next [until] under a
    mutex and bumps a generation counter, advances its own lanes, then
    waits until every helper has reported; that wait is the barrier.

    Determinism argument, in two halves:
    - {e within a lane}: {!Machine.run_until} parks rather than clamps,
      so chunking a run into quanta replays exactly the unchunked step
      sequence — the boundary never reorders anything.
    - {e across lanes}: during a quantum lanes touch only their own
      world, so host scheduling of the domains is unobservable; [commit]
      visits lanes in a fixed order at a fixed virtual time. Hence
      [Seq] and [Par] (any job count, any host) produce bit-identical
      simulations. *)

type lane = { l_name : string; l_advance : until:int -> [ `Paused | `Done ] }

type engine = Seq | Par of { jobs : int }


let default_quantum = 50_000

type failure = (exn * Printexc.raw_backtrace) option

(* The barrier between the caller and the helpers of one [run]. Every
   field is read and written under [m] only. *)
type pool = {
  m : Mutex.t;
  go : Condition.t;  (** caller -> helpers: new generation, or stop *)
  reported : Condition.t;  (** helpers -> caller: [pending] reached 0 *)
  mutable gen : int;
  mutable until : int;
  mutable pending : int;  (** helpers yet to report this generation *)
  mutable stop : bool;
}

let attempt f : failure =
  match f () with
  | () -> None
  | exception e -> Some (e, Printexc.get_raw_backtrace ())

(* Run [f step] where [step ~until] advances every worker's lanes to
   [until] and returns after the barrier, re-raising the failure of the
   lowest-numbered failing worker. The helpers are joined before this
   returns, whether or not [f] raises. *)
let with_pool ~jobs ~work f =
  let p =
    {
      m = Mutex.create ();
      go = Condition.create ();
      reported = Condition.create ();
      gen = 0;
      until = 0;
      pending = 0;
      stop = false;
    }
  in
  (* failures.(w) is written by worker w during a quantum and read by the
     caller after the barrier, like the lanes' own state. *)
  let failures : failure array = Array.make jobs None in
  (* Helper [w]'s life: wait for a generation it has not run, advance its
     lanes (recording rather than raising a lane failure, so the barrier
     always completes), report, repeat until told to stop. *)
  let rec serve w seen =
    let next =
      Mutex.protect p.m (fun () ->
          while p.gen = seen && not p.stop do Condition.wait p.go p.m done;
          if p.stop then None else Some (p.gen, p.until))
    in
    match next with
    | None -> ()
    | Some (gen, until) ->
      failures.(w) <- attempt (fun () -> work ~until w);
      Mutex.protect p.m (fun () ->
          p.pending <- p.pending - 1;
          if p.pending = 0 then Condition.signal p.reported);
      serve w gen
  in
  let step ~until =
    Mutex.protect p.m (fun () ->
        p.until <- until;
        p.gen <- p.gen + 1;
        p.pending <- jobs - 1;
        Condition.broadcast p.go);
    failures.(0) <- attempt (fun () -> work ~until 0);
    Mutex.protect p.m (fun () ->
        while p.pending > 0 do Condition.wait p.reported p.m done);
    match Array.find_map Fun.id failures with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  in
  let helpers = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect p.m (fun () ->
          p.stop <- true;
          Condition.broadcast p.go);
      List.iter Domain.join !helpers)
    (fun () ->
      for w = 1 to jobs - 1 do
        helpers := Domain.spawn (fun () -> serve w 0) :: !helpers
      done;
      f step)

let run ?(quantum = default_quantum) engine ~lanes
    ?(commit = fun ~boundary:_ -> ()) () =
  if quantum <= 0 then invalid_arg "Quantum.run: quantum <= 0";
  match lanes with
  | [] -> 0
  | lanes ->
    let lanes = Array.of_list lanes in
    let n = Array.length lanes in
    let jobs =
      match engine with Seq -> 1 | Par { jobs } -> max 1 (min jobs n)
    in
    let finished = Array.make n false in
    (* Lane i is owned by worker [i mod jobs] for the whole run: a
       static, host-independent partition. Each finished.(i) is written
       only by i's owner during a quantum and read by the caller only
       after the barrier. *)
    let work ~until w =
      let i = ref w in
      while !i < n do
        if not finished.(!i) then (
          match lanes.(!i).l_advance ~until with
          | `Done -> finished.(!i) <- true
          | `Paused -> ());
        i := !i + jobs
      done
    in
    let drive step =
      let rec go boundary quanta =
        if Array.for_all Fun.id finished then quanta
        else begin
          step ~until:boundary;
          commit ~boundary;
          go (boundary + quantum) (quanta + 1)
        end
      in
      go quantum 0
    in
    if jobs = 1 then drive (fun ~until -> work ~until 0)
    else with_pool ~jobs ~work drive
