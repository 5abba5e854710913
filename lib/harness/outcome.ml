(** What one experiment run hands the harness: the table printed for
    humans, the deterministic JSON payload printed with [--json] and
    archived as an artifact's "result", host facts for the artifact's
    "host" object, and the names of the acceptance checks that failed
    (empty when the run passes). *)

type t = {
  table : Tbl.t;
  json : Sky_trace.Json.t;
  host : (string * Sky_trace.Json.t) list;
  failed : string list;
}

(* A paper table or figure: its JSON is the table's, and it gates nothing. *)
let of_table table = { table; json = Tbl.to_json table; host = []; failed = [] }

(* [checks] pairs each acceptance check's name with whether it holds. *)
let make ?(host = []) ~checks table json =
  {
    table;
    json;
    host;
    failed = List.filter_map (fun (name, ok) -> if ok then None else Some name) checks;
  }

(* Typed readers of a payload's keys, for the checks and tables that
   read it. A missing or mistyped key raises [Invalid_argument] naming
   the key; there are no defaults. *)
let field j key =
  match Sky_trace.Json.member key j with
  | Some v -> v
  | None -> invalid_arg ("Outcome: no key " ^ key)

let mistyped key = invalid_arg ("Outcome: mistyped key " ^ key)
let int j key = match field j key with Sky_trace.Json.Int n -> n | _ -> mistyped key
let float j key = match field j key with Sky_trace.Json.Float f -> f | _ -> mistyped key
let bool j key = match field j key with Sky_trace.Json.Bool b -> b | _ -> mistyped key
let string j key = match field j key with Sky_trace.Json.String s -> s | _ -> mistyped key
let list j key = match field j key with Sky_trace.Json.List l -> l | _ -> mistyped key
