type rights = { send : bool; recv : bool; grant : bool }

let all_rights = { send = true; recv = true; grant = true }
let send_only = { send = true; recv = false; grant = false }

let intersect a b =
  { send = a.send && b.send; recv = a.recv && b.recv; grant = a.grant && b.grant }

let covers held need =
  ((not need.send) || held.send)
  && ((not need.recv) || held.recv)
  && ((not need.grant) || held.grant)

type t = {
  owner : int;
  target : int;
  rights : rights;
  badge : int;
  mutable children : t list;
  mutable live : bool;
}

type registry = { by_owner : (int, t list ref) Hashtbl.t }

exception Cap_denied of { pid : int; target : int; reason : string }

let create_registry () = { by_owner = Hashtbl.create 16 }

let attach r cap =
  match Hashtbl.find_opt r.by_owner cap.owner with
  | Some l -> l := cap :: !l
  | None -> Hashtbl.replace r.by_owner cap.owner (ref [ cap ])

let mint r ~owner ~target ~rights ~badge =
  let cap = { owner; target; rights; badge; children = []; live = true } in
  attach r cap;
  cap

let derive r parent ~new_owner ?badge rights =
  if not parent.live then
    raise
      (Cap_denied
         { pid = new_owner; target = parent.target; reason = "parent revoked" });
  if not parent.rights.grant then
    raise
      (Cap_denied
         { pid = new_owner; target = parent.target; reason = "parent lacks grant" });
  let cap =
    {
      owner = new_owner;
      target = parent.target;
      rights = intersect parent.rights rights;
      badge = Option.value ~default:parent.badge badge;
      children = [];
      live = true;
    }
  in
  parent.children <- cap :: parent.children;
  attach r cap;
  cap

let rec kill cap =
  if cap.live then begin
    cap.live <- false;
    List.iter kill cap.children
  end

let revoke _r cap = List.iter kill cap.children
let delete _r cap = kill cap
let is_live _r cap = cap.live
let target cap = cap.target
let badge cap = cap.badge
let rights cap = cap.rights

let rec any_covers ~target ~need = function
  | [] -> false
  | c :: rest ->
    (c.live && c.target = target && covers c.rights need)
    || any_covers ~target ~need rest

let check r ~pid ~target ~need =
  match Hashtbl.find r.by_owner pid with
  | exception Not_found -> false
  | l -> any_covers ~target ~need !l
