(* The Subkernel's binding table against a pure reference model: a map
   of (client pid, server id) states, a set of dead servers and a call
   counter, written from the state rules alone. A qcheck property drives
   both with random sequences of bind, call, crash, restart, revoke,
   retire, rebind, suspend and resume under a small EPTP list and
   binding budget, compares them after every step and ends every
   sequence with a clean audit. *)

open Sky_sim
open Sky_ukernel
module Subkernel = Sky_core.Subkernel
module Fault = Sky_faults.Fault

let max_eptp = 3 (* the own EPT + 2 binding slots *)
let max_bindings = 4

(* ---- the reference model ---- *)

module Pairs = Map.Make (struct
  type t = int * int

  let compare = compare
end)

module Ints = Set.Make (Int)

(* A bound pair carries the call count of its last direct call. *)
type mstate = Bound of int | Orphaned | Parked | Retired

type model = {
  mutable pairs : mstate Pairs.t;
  mutable dead : Ints.t;
  mutable registered : Ints.t;  (** clients that ever asked for a binding *)
  mutable calls : int;
  closure : int -> int list;  (** a server and its dependencies *)
}

let rank = function Bound _ -> 0 | Orphaned -> 1 | Parked -> 2 | Retired -> 3
let bound = function Bound _ -> true | Orphaned | Parked | Retired -> false
let state m c s = Pairs.find_opt (c, s) m.pairs
let live m = Pairs.cardinal (Pairs.filter (fun _ st -> bound st) m.pairs)

(* A grant binds any pair that is not bound; a restart or rebind only an
   orphan; a resume also a parked pair. *)
let admits path = function
  | Some (Bound _) -> false
  | Some Orphaned -> true
  | Some Parked -> path <> `Recover
  | None | Some Retired -> path = `Grant

(* The budget retires every bound pair of the other client whose last
   call is oldest (ties to the lower pid) until the newcomers fit. *)
let rec budget m ~client ~incoming =
  if live m + incoming > max_bindings then begin
    let recent =
      Pairs.fold
        (fun (c, _) st acc ->
          match st with
          | Bound stamp when c <> client ->
            let r = Option.value (List.assoc_opt c acc) ~default:0 in
            (c, max r stamp) :: List.remove_assoc c acc
          | _ -> acc)
        m.pairs []
    in
    match List.sort (fun (c, r) (d, q) -> compare (r, c) (q, d)) recent with
    | [] -> ()
    | (victim, _) :: _ ->
      m.pairs <- Pairs.mapi (fun (c, _) st -> if c = victim && bound st then Retired else st) m.pairs;
      budget m ~client ~incoming
  end

let bind m path c s =
  if admits path (state m c s) then begin
    let missing = List.filter (fun k -> admits path (state m c k)) (m.closure s) in
    budget m ~client:c ~incoming:(List.length missing);
    List.iter (fun k -> m.pairs <- Pairs.add (c, k) (Bound 0) m.pairs) missing
  end

let revoke m c s into =
  match state m c s with
  | Some st when rank into > rank st -> m.pairs <- Pairs.add (c, s) into m.pairs
  | _ -> ()

let call m c s =
  if not (Ints.mem c m.registered) then `Not_registered
  else if Ints.mem s m.dead then `Crashed
  else
    match state m c s with
    | None -> `Not_registered
    | Some (Bound _) ->
      m.calls <- m.calls + 1;
      m.pairs <- Pairs.add (c, s) (Bound m.calls) m.pairs;
      `Direct
    | Some _ -> `Degraded

let reap m s =
  m.dead <- Ints.add s m.dead;
  m.pairs <- Pairs.mapi (fun (_, k) st -> if k = s && bound st then Orphaned else st) m.pairs

(* ---- the machine ---- *)

type op =
  | Bind of int * int
  | Call of int * int
  | Crash of int * int
  | Restart of int
  | Revoke of int * int
  | Retire of int * int
  | Rebind of int * int
  | Suspend of int
  | Resume of int

let show = function
  | Bind (c, s) -> Printf.sprintf "bind c%d s%d" c s
  | Call (c, s) -> Printf.sprintf "call c%d s%d" c s
  | Crash (c, s) -> Printf.sprintf "crash c%d s%d" c s
  | Restart s -> Printf.sprintf "restart s%d" s
  | Revoke (c, s) -> Printf.sprintf "revoke c%d s%d" c s
  | Retire (c, s) -> Printf.sprintf "retire c%d s%d" c s
  | Rebind (c, s) -> Printf.sprintf "rebind c%d s%d" c s
  | Suspend c -> Printf.sprintf "suspend c%d" c
  | Resume c -> Printf.sprintf "resume c%d" c

(* Three clients; servers 0 and 2 stand alone, server 1 depends on 0. *)
let op_gen =
  QCheck.Gen.(
    let c = int_bound 2 and s = int_bound 2 in
    frequency
      [
        (4, map2 (fun c s -> Bind (c, s)) c s);
        (5, map2 (fun c s -> Call (c, s)) c s);
        (3, map2 (fun c s -> Crash (c, s)) c s);
        (3, map (fun s -> Restart s) s);
        (1, map2 (fun c s -> Revoke (c, s)) c s);
        (1, map2 (fun c s -> Retire (c, s)) c s);
        (2, map2 (fun c s -> Rebind (c, s)) c s);
        (1, map (fun c -> Suspend c) c);
        (1, map (fun c -> Resume c) c);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 30) op_gen)

type rig = {
  sb : Subkernel.t;
  clients : Proc.t array;
  sids : int array;
  names : string array;
}

let rig () =
  let k = Kernel.create (Machine.create ~cores:1 ~mem_mib:32 ()) in
  let sb = Subkernel.init ~max_eptp ~max_bindings k in
  let names = [| "srv0"; "srv1"; "srv2" |] in
  let procs = Array.map (fun name -> Kernel.spawn k ~name) names in
  let echo ~core:_ msg = msg in
  let s0 = Subkernel.register_server sb procs.(0) ~connection_count:1 echo in
  let s1 = Subkernel.register_server sb procs.(1) ~connection_count:1 ~deps:[ s0 ] echo in
  let s2 = Subkernel.register_server sb procs.(2) ~connection_count:1 echo in
  let clients = Array.init 3 (fun i -> Kernel.spawn k ~name:(Printf.sprintf "client%d" i)) in
  { sb; clients; sids = [| s0; s1; s2 |]; names }

let real_call r c s =
  let degraded0 = Subkernel.degraded_calls r.sb in
  match
    Subkernel.call r.sb ~core:0 ~client:r.clients.(c) ~server_id:r.sids.(s) ~timeout:(-1)
      (Bytes.make 8 'x')
  with
  | _ -> if Subkernel.degraded_calls r.sb > degraded0 then `Degraded else `Direct
  | exception Subkernel.Failed (Subkernel.Crashed _) -> `Crashed
  | exception Subkernel.Failed _ -> `Other
  | exception Subkernel.Not_registered _ -> `Not_registered

let show_outcome = function
  | `Direct -> "direct"
  | `Degraded -> "degraded"
  | `Crashed -> "crashed"
  | `Not_registered -> "not-registered"
  | `Other -> "other"

(* Run [ops] on the Subkernel and the model; the first disagreement, or
   a dirty final audit, fails the property with what differed. *)
let agree ops =
  Fun.protect ~finally:Fault.disable @@ fun () ->
  let r = rig () in
  let pid c = r.clients.(c).Proc.pid in
  let m =
    {
      pairs = Pairs.empty;
      dead = Ints.empty;
      registered = Ints.empty;
      calls = 0;
      closure = (fun s -> if s = r.sids.(1) then [ r.sids.(1); r.sids.(0) ] else [ s ]);
    }
  in
  let outcome ~want ~got op =
    if want <> got then
      QCheck.Test.fail_reportf "%s: subkernel %s, model %s" (show op) (show_outcome got)
        (show_outcome want)
  in
  let step op =
    match op with
    | Bind (c, s) ->
      Subkernel.register_client_to_server r.sb r.clients.(c) ~server_id:r.sids.(s);
      m.registered <- Ints.add (pid c) m.registered;
      bind m `Grant (pid c) r.sids.(s)
    | Call (c, s) ->
      let got = real_call r c s in
      outcome ~want:(call m (pid c) r.sids.(s)) ~got op
    | Crash (c, s) ->
      Fault.reset ~seed:1 ();
      Fault.arm ~site:("server." ^ r.names.(s)) ~kind:Fault.Crash (Fault.At_hit 1);
      let got = real_call r c s in
      Fault.disable ();
      let want =
        match call m (pid c) r.sids.(s) with
        | (`Direct | `Degraded) ->
          reap m r.sids.(s);
          `Crashed
        | other -> other
      in
      outcome ~want ~got op
    | Restart s ->
      let sid = r.sids.(s) in
      Subkernel.restart_server r.sb ~server_id:sid;
      if Ints.mem sid m.dead then begin
        m.dead <- Ints.remove sid m.dead;
        Pairs.iter
          (fun (c, k) st -> if k = sid && st = Orphaned then bind m `Recover c sid)
          m.pairs
      end
    | Revoke (c, s) ->
      Subkernel.revoke_binding r.sb ~core:0 r.clients.(c) ~server_id:r.sids.(s)
        ~reason:"model" ~into:Subkernel.Orphaned;
      revoke m (pid c) r.sids.(s) Orphaned
    | Retire (c, s) ->
      Subkernel.revoke_binding r.sb ~core:0 r.clients.(c) ~server_id:r.sids.(s)
        ~reason:"model" ~into:Subkernel.Retired;
      revoke m (pid c) r.sids.(s) Retired
    | Rebind (c, s) ->
      Subkernel.rebind r.sb r.clients.(c) ~server_id:r.sids.(s);
      bind m `Recover (pid c) r.sids.(s)
    | Suspend c ->
      Subkernel.suspend r.sb ~core:0 r.clients.(c);
      m.pairs <- Pairs.mapi (fun (p, _) st -> if p = pid c && bound st then Parked else st) m.pairs
    | Resume c ->
      Subkernel.resume r.sb r.clients.(c);
      Pairs.iter (fun (p, s) st -> if p = pid c && st = Parked then bind m `Resume p s) m.pairs
  in
  let compare_tables op =
    let want = Pairs.fold (fun k st acc -> if bound st then k :: acc else acc) m.pairs [] in
    let show_pairs ps =
      String.concat " " (List.map (fun (c, s) -> Printf.sprintf "(%d,%d)" c s) ps)
    in
    let got = Subkernel.bindings r.sb in
    if got <> List.rev want then
      QCheck.Test.fail_reportf "after %s: bindings [%s], model [%s]" (show op) (show_pairs got)
        (show_pairs (List.rev want));
    if List.sort compare (Subkernel.dead_servers r.sb) <> Ints.elements m.dead then
      QCheck.Test.fail_reportf "after %s: dead servers differ" (show op);
    if Subkernel.live_bindings r.sb <> live m then
      QCheck.Test.fail_reportf "after %s: live_bindings %d, model %d" (show op)
        (Subkernel.live_bindings r.sb) (live m)
  in
  List.iter
    (fun op ->
      step op;
      compare_tables op)
    ops;
  match Subkernel.audit r.sb with
  | [] -> true
  | vs ->
    QCheck.Test.fail_reportf "audit: %s"
      (String.concat "; " (List.map Sky_analysis.Report.to_string vs))

let prop_model =
  QCheck.Test.make ~name:"binding table agrees with its reference model" ~count:300 ops_arb
    agree

let () = Alcotest.run "bindings" [ ("model", [ QCheck_alcotest.to_alcotest prop_model ]) ]
