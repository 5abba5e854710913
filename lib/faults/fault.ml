type kind = Crash | Hang | Revoke | Ept_fault | Drop

type trigger = At_cycle of int | At_hit of int | Every of int | Prob of float

exception Injected of { site : string; kind : kind }

type arm_state = {
  a_kind : kind;
  a_trigger : trigger;
  mutable a_budget : int;
  mutable a_hits : int;
  mutable a_rng : int64;  (** per-arm splitmix64 state *)
}

(* All engine state lives in one record. Single-machine runs use the
   process-wide default engine and behave exactly like the old global
   singleton; the parallel scheduler binds a fresh engine domain-locally
   per shard ({!with_engine}), so concurrent shards arm, fire and log
   independently and a shard's census is identical whether it ran
   sequentially or on its own domain. *)
type engine = {
  mutable e_enabled : bool;
  mutable e_scope : int;
  mutable e_seed : int;
  mutable e_clock : int -> int;
  e_arms : (string, arm_state list ref) Hashtbl.t;
  mutable e_fired : (string * kind * int) list;
}

let fresh_engine ?(seed = 0) () =
  {
    e_enabled = false;
    e_scope = 0;
    e_seed = seed;
    e_clock = (fun _ -> 0);
    e_arms = Hashtbl.create 16;
    e_fired = [];
  }

let default_engine = fresh_engine ()

(* Count of engines whose [e_enabled] is set, so the disabled hot path
   ({!is_enabled} in {!Sky_sim.Cpu.charge}) stays one atomic load: when
   zero, no engine anywhere can fire and hooks return immediately. *)
let enabled_engines = Atomic.make 0

(* Number of domains currently bound to a non-default engine (same fast
   default / scoped override pattern as {!Sky_trace.Trace}). *)
let scoped_engines = Atomic.make 0

let engine_key : engine Domain.DLS.key =
  Domain.DLS.new_key (fun () -> default_engine)

let engine () =
  if Atomic.get scoped_engines = 0 then default_engine
  else Domain.DLS.get engine_key

let with_engine e f =
  let prev = Domain.DLS.get engine_key in
  Domain.DLS.set engine_key e;
  Atomic.incr scoped_engines;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set engine_key prev;
      Atomic.decr scoped_engines)
    f

let set_engine_enabled e b =
  if e.e_enabled <> b then begin
    e.e_enabled <- b;
    if b then Atomic.incr enabled_engines else Atomic.decr enabled_engines
  end

(* Same mixer as Sky_sim.Rng (copied: sky_faults sits below sky_sim in
   the dependency order so the sim's hot loop can host fault sites). *)
let sm_next a =
  let open Int64 in
  let s = add a.a_rng 0x9E3779B97F4A7C15L in
  a.a_rng <- s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let sm_float a =
  let bits = Int64.to_int (sm_next a) land ((1 lsl 53) - 1) in
  float_of_int bits /. float_of_int (1 lsl 53)

let reset ?(seed = 1) () =
  let e = engine () in
  Hashtbl.reset e.e_arms;
  e.e_fired <- [];
  e.e_scope <- 0;
  e.e_seed <- seed;
  set_engine_enabled e true

let disable () = set_engine_enabled (engine ()) false

let is_enabled () = Atomic.get enabled_engines > 0 && (engine ()).e_enabled

let set_clock f = (engine ()).e_clock <- f

let enter_scope () =
  let e = engine () in
  e.e_scope <- e.e_scope + 1

let leave_scope () =
  let e = engine () in
  if e.e_scope > 0 then e.e_scope <- e.e_scope - 1

let in_scope () = (engine ()).e_scope > 0

let with_scope f =
  enter_scope ();
  Fun.protect ~finally:leave_scope f

let arm ?(budget = 1) ~site ~kind trigger =
  let e = engine () in
  let lst =
    match Hashtbl.find_opt e.e_arms site with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace e.e_arms site l;
      l
  in
  (* Seed the arm's private stream from (engine seed, site, ordinal) so
     firing schedules do not depend on how other sites interleave. *)
  let ordinal = List.length !lst in
  let a =
    {
      a_kind = kind;
      a_trigger = trigger;
      a_budget = budget;
      a_hits = 0;
      a_rng =
        Int64.of_int (e.e_seed lxor Hashtbl.hash (site, ordinal) lxor 0x5b1d);
    }
  in
  lst := !lst @ [ a ]

let check ?(scoped = false) ~core site =
  let e = engine () in
  if not e.e_enabled then None
  else if scoped && e.e_scope <= 0 then None
  else
    match Hashtbl.find_opt e.e_arms site with
    | None -> None
    | Some lst ->
      let now = e.e_clock core in
      let rec go = function
        | [] -> None
        | a :: rest ->
          if a.a_budget <= 0 then go rest
          else begin
            a.a_hits <- a.a_hits + 1;
            let fires =
              match a.a_trigger with
              | At_cycle c -> now >= c
              | At_hit n -> a.a_hits = n
              | Every n -> n > 0 && a.a_hits mod n = 0
              | Prob p -> sm_float a < p
            in
            if fires then begin
              a.a_budget <- a.a_budget - 1;
              e.e_fired <- (site, a.a_kind, now) :: e.e_fired;
              Sky_trace.Trace.instant ~core ~cat:"fault" ("fault." ^ site);
              Some a.a_kind
            end
            else go rest
          end
      in
      go !lst

let inject ~core site =
  if is_enabled () then
    match check ~scoped:true ~core site with
    | Some kind -> raise (Injected { site; kind })
    | None -> ()

let fired () = List.rev (engine ()).e_fired

let fired_counts () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (site, _, _) ->
      Hashtbl.replace tbl site
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl site)))
    (engine ()).e_fired;
  Hashtbl.fold (fun site n acc -> (site, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
